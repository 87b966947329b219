"""Core types for worst-case mean estimation under randomized data collection.

A collection process over a population of size ``n`` is a probability
distribution over ``m`` index-set pairs: a *sample* set whose data values
are observed and a *target* set whose mean is to be estimated.  Pair ``i``
is drawn with probability ``pi_i`` (uniform ``1/m`` unless given).  A
semilinear estimator answers pair ``i`` with the inner product of a weight
vector supported on the sample set and the data vector.  Its expected
squared error is the quadratic form of a PSD loss matrix assembled from
the per-pair residuals between estimator weights and the target-averaging
vector, each weighted by its pair probability.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

LINF = "linf"
L2 = "l2"

# slack on the norm-ball membership checks
_REGIME_TOL = 1e-12

# allowed deviation of a probability vector's sum from one
_PROB_SUM_TOL = 1e-9


class SchemaError(ValueError):
    """Invalid on-disk distribution/estimator data; ``code`` names the violation."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SupportError(ValueError):
    """An estimator weight was placed outside the pair's sample set."""


def _check_probabilities(probs) -> None:
    """Raise SchemaError unless probs are finite, nonnegative and sum to one."""
    for i, p in enumerate(probs):
        if not math.isfinite(p):
            raise SchemaError("nonfinite_probability", f"pair {i}: probability {p} is not finite")
        if p < 0.0:
            raise SchemaError("negative_probability", f"pair {i}: probability {p} is negative")
    total = math.fsum(probs)
    if abs(total - 1.0) > _PROB_SUM_TOL:
        raise SchemaError("probability_sum", f"pair probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class IndexPair:
    """One (sample, target) pair, both sorted tuples of 0-based population indices."""

    sample: tuple[int, ...]
    target: tuple[int, ...]


@dataclass(frozen=True)
class SampleTargetDistribution:
    """Distribution over ``m`` (sample, target) pairs on ``[0, n)``.

    Target sets must be nonempty; sample sets may be empty (nothing was
    observed for that pair).  ``probs`` gives pair i's probability; None
    means uniform, and pairs may then repeat (the object is a multiset).
    Explicit probabilities must be finite, nonnegative and sum to one
    within 1e-9; violations raise SchemaError.
    """

    n: int
    pairs: tuple[IndexPair, ...]
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"population size must be >= 1, got {self.n}")
        if len(self.pairs) < 1:
            raise ValueError("at least one (sample, target) pair is required")
        canonical = []
        # pairs often share one target object, canonicalised once
        last_raw, last_target = object(), ()
        for i, pair in enumerate(self.pairs):
            sample = tuple(sorted(set(map(int, pair.sample))))
            if pair.target is last_raw:
                target = last_target
            else:
                target = tuple(sorted(set(map(int, pair.target))))
            if not target:
                raise ValueError(f"pair {i}: target set is empty")
            # sorted, so the ends show any index outside [0, n)
            for idx in (sample, target):
                if idx and (idx[0] < 0 or idx[-1] >= self.n):
                    j = idx[0] if idx[0] < 0 else idx[bisect.bisect_left(idx, self.n)]
                    raise ValueError(f"pair {i}: index {j} outside [0, {self.n})")
            last_raw, last_target = pair.target, target
            canonical.append(IndexPair(sample, target))
        object.__setattr__(self, "pairs", tuple(canonical))
        if self.probs is not None:
            probs = tuple(float(p) for p in self.probs)
            if len(probs) != len(canonical):
                raise ValueError(f"expected {len(canonical)} pair probabilities, got {len(probs)}")
            _check_probabilities(probs)
            object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return len(self.pairs)

    @cached_property
    def pair_weights(self) -> np.ndarray:
        """(m,) weights w_i = m pi_i: pair probabilities on the multiset scale.

        A uniform distribution has weight exactly one per pair, so weighting
        by w leaves its arithmetic unchanged to the last bit.
        """
        vec = np.ones(self.m) if self.probs is None else self.m * np.array(self.probs)
        vec.setflags(write=False)
        return vec

    @cached_property
    def sample_mask(self) -> np.ndarray:
        """(m, n) boolean mask of the sample sets."""
        mask = np.zeros((self.m, self.n), dtype=bool)
        for i, pair in enumerate(self.pairs):
            mask[i, list(pair.sample)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def target_rows(self) -> np.ndarray:
        """(m, n) matrix whose row i is the target-averaging vector b_i."""
        rows = np.zeros((self.m, self.n))
        for i, pair in enumerate(self.pairs):
            rows[i, list(pair.target)] = 1.0 / len(pair.target)
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class SemilinearEstimator:
    """Per-pair weight vectors, stored sparsely as index -> weight maps.

    Entry ``weights[i]`` answers pair ``i``; every key must lie in the
    pair's sample set of the distribution it is used with.
    """

    n: int
    weights: tuple[dict[int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"population size must be >= 1, got {self.n}")
        if len(self.weights) < 1:
            raise ValueError("at least one weight vector is required")
        for i, w in enumerate(self.weights):
            for j, val in w.items():
                if not 0 <= int(j) < self.n:
                    raise ValueError(f"weights[{i}]: index {j} outside [0, {self.n})")
                if not math.isfinite(val):
                    raise ValueError(f"weights[{i}][{j}] is not finite")

    @property
    def m(self) -> int:
        return len(self.weights)

    def dense(self) -> np.ndarray:
        """(m, n) dense weight matrix."""
        arr = np.zeros((self.m, self.n))
        for i, w in enumerate(self.weights):
            for j, val in w.items():
                arr[i, j] = val
        return arr


@dataclass(frozen=True)
class DataValues:
    """A data vector, optionally certified to lie in a norm ball.

    ``norm_regime`` is "linf" (max |x_j| <= 1), "l2" (||x|| <= sqrt(n)) or
    None when no ball membership is asserted (arbitrary fixed datasets).
    """

    values: np.ndarray
    norm_regime: str | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("data values must be a nonempty 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("data values must be finite")
        if self.norm_regime == LINF:
            top = float(np.max(np.abs(vals)))
            if top > 1.0 + _REGIME_TOL:
                raise ValueError(f"linf regime requires max|x_j| <= 1, got {top}")
        elif self.norm_regime == L2:
            bound = math.sqrt(vals.size) * (1.0 + _REGIME_TOL)
            nrm = float(np.linalg.norm(vals))
            if nrm > bound:
                raise ValueError(f"l2 regime requires ||x|| <= sqrt(n), got {nrm}")
        elif self.norm_regime is not None:
            raise ValueError(f"unknown norm regime {self.norm_regime!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass
class LossMatrix:
    """PSD loss matrix in factored form: M = rows^T rows.

    Row i is the residual (a_i - b_i) sqrt(pi_i), so <M, xx^T> is the
    expected squared estimation error on data x.
    """

    dim: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"rows must be (m, {self.dim}), got {rows.shape}")
        self.rows = rows

    @cached_property
    def dense(self) -> np.ndarray:
        """Materialized (n, n) matrix."""
        return self.rows.T @ self.rows

    @property
    def trace(self) -> float:
        return float(np.sum(self.rows * self.rows))

    def quad(self, x: np.ndarray) -> float:
        """x^T M x, nonnegative by construction."""
        y = self.rows @ np.asarray(x, dtype=float)
        return float(y @ y)


def validate_estimator(est: SemilinearEstimator, dist: SampleTargetDistribution) -> None:
    """Check n/m consistency and that every weight lies in its sample set."""
    if est.n != dist.n:
        raise ValueError(f"population size mismatch: estimator {est.n}, distribution {dist.n}")
    if est.m != dist.m:
        raise ValueError(f"pair count mismatch: estimator {est.m}, distribution {dist.m}")
    for i, w in enumerate(est.weights):
        sample = set(dist.pairs[i].sample)
        for j in w:
            if j not in sample:
                raise SupportError(f"weights[{i}]: index {j} outside the sample set")


def loss_factor(dist: SampleTargetDistribution, resid: np.ndarray) -> LossMatrix:
    """Loss matrix from (m, n) residuals a - b: rows r_i sqrt(w_i / m) = r_i sqrt(pi_i)."""
    return LossMatrix(dist.n, resid * np.sqrt(dist.pair_weights)[:, None] / math.sqrt(dist.m))


def build_loss_matrix(est: SemilinearEstimator, dist: SampleTargetDistribution) -> LossMatrix:
    """Assemble M(a) = sum_i pi_i (a_i - b_i)(a_i - b_i)^T in factored form."""
    validate_estimator(est, dist)
    return loss_factor(dist, est.dense() - dist.target_rows)


def fixed_data_error(
    est: SemilinearEstimator,
    dist: SampleTargetDistribution,
    x: DataValues | np.ndarray,
) -> float:
    """Expected squared error on a fixed data vector: sum_i pi_i <a_i - b_i, x>^2."""
    vals = x.values if isinstance(x, DataValues) else np.asarray(x, dtype=float)
    if vals.size != dist.n:
        raise ValueError(f"data vector has size {vals.size}, expected {dist.n}")
    return build_loss_matrix(est, dist).quad(vals)


# ---------------------------------------------------------------------------
# JSON formats.  Distribution files: {"n": int, "pairs": [{"A": [...], "B": [...]}]},
# each pair optionally carrying its probability "p" (all pairs or none).
# Estimator files: {"n": int, "weights": [[[index, value], ...], ...]}
# ---------------------------------------------------------------------------


def _check_index_list(raw, n: int, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(isinstance(j, int) and not isinstance(j, bool) for j in raw):
        raise SchemaError("bad_schema", f"{where}: expected a list of integers")
    for j in raw:
        if not 0 <= j < n:
            raise SchemaError("index_out_of_range", f"{where}: index {j} outside [0, {n})")
    for prev, cur in zip(raw, raw[1:]):
        if cur == prev:
            raise SchemaError("duplicate_indices", f"{where}: duplicate index {cur}")
        if cur < prev:
            raise SchemaError("unsorted_indices", f"{where}: indices not sorted")
    return tuple(raw)


def distribution_from_dict(data) -> SampleTargetDistribution:
    if not isinstance(data, dict) or "n" not in data or "pairs" not in data:
        raise SchemaError("bad_schema", 'distribution JSON must have keys "n" and "pairs"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("bad_schema", f'"n" must be a positive integer, got {n!r}')
    raw_pairs = data["pairs"]
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise SchemaError("bad_schema", '"pairs" must be a nonempty list')
    pairs = []
    probs = []
    for i, entry in enumerate(raw_pairs):
        if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
            raise SchemaError("bad_schema", f'pair {i}: expected keys "A" and "B"')
        sample = _check_index_list(entry["A"], n, f'pair {i} "A"')
        target = _check_index_list(entry["B"], n, f'pair {i} "B"')
        if not target:
            raise SchemaError("empty_target", f'pair {i}: "B" must be nonempty')
        pairs.append(IndexPair(sample, target))
        if "p" in entry:
            p = entry["p"]
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise SchemaError("bad_schema", f'pair {i}: "p" must be a number')
            try:
                probs.append(float(p))
            except OverflowError:  # an integer beyond float range
                raise SchemaError("bad_schema", f'pair {i}: "p" too large for a float') from None
    if not probs:
        return SampleTargetDistribution(n, tuple(pairs))
    if len(probs) != len(pairs):
        raise SchemaError("bad_schema", '"p" must be given for every pair or for none')
    return SampleTargetDistribution(n, tuple(pairs), tuple(probs))


def distribution_to_dict(dist: SampleTargetDistribution) -> dict:
    pairs = [{"A": list(p.sample), "B": list(p.target)} for p in dist.pairs]
    if dist.probs is not None:
        for entry, p in zip(pairs, dist.probs):
            entry["p"] = p
    return {"n": dist.n, "pairs": pairs}


def estimator_from_dict(data) -> SemilinearEstimator:
    if not isinstance(data, dict) or "n" not in data or "weights" not in data:
        raise SchemaError("bad_schema", 'estimator JSON must have keys "n" and "weights"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("bad_schema", f'"n" must be a positive integer, got {n!r}')
    raw = data["weights"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("bad_schema", '"weights" must be a nonempty list')
    weights = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise SchemaError("bad_schema", f"weights[{i}]: expected a list of [index, value]")
        w: dict[int, float] = {}
        for item in entry:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], int)
                or isinstance(item[0], bool)
                or not isinstance(item[1], (int, float))
                or isinstance(item[1], bool)
            ):
                raise SchemaError("bad_schema", f"weights[{i}]: entries must be [index, value]")
            try:
                j, val = item[0], float(item[1])
            except OverflowError:  # an integer beyond float range
                raise SchemaError("bad_schema", f"weights[{i}]: value too large for a float") from None
            if not 0 <= j < n:
                raise SchemaError("index_out_of_range", f"weights[{i}]: index {j} outside [0, {n})")
            if j in w:
                raise SchemaError("duplicate_indices", f"weights[{i}]: duplicate index {j}")
            if not math.isfinite(val):
                raise SchemaError("bad_schema", f"weights[{i}][{j}] is not finite")
            w[j] = val
        weights.append(w)
    return SemilinearEstimator(n, tuple(weights))


def estimator_to_dict(est: SemilinearEstimator) -> dict:
    return {
        "n": est.n,
        "weights": [[[j, float(w[j])] for j in sorted(w)] for w in est.weights],
    }


def _load_json(path: str | Path):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError("unreadable", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise SchemaError("malformed_json", f"{path}: {exc}") from exc


def load_distribution_file(path: str | Path) -> SampleTargetDistribution:
    return distribution_from_dict(_load_json(path))


def save_distribution_file(dist: SampleTargetDistribution, path: str | Path) -> None:
    Path(path).write_text(json.dumps(distribution_to_dict(dist)) + "\n")


def load_estimator_file(path: str | Path) -> SemilinearEstimator:
    return estimator_from_dict(_load_json(path))


def save_estimator_file(est: SemilinearEstimator, path: str | Path) -> None:
    Path(path).write_text(json.dumps(estimator_to_dict(est)) + "\n")


def estimator_from_dense(
    dist: SampleTargetDistribution, dense: np.ndarray
) -> SemilinearEstimator:
    """Wrap a dense (m, n) weight array, keeping every sample-set coordinate."""
    return _estimator_on_mask(dist.sample_mask, dense)


def _estimator_on_mask(mask: np.ndarray, dense: np.ndarray) -> SemilinearEstimator:
    """Wrap a dense weight array, keeping every coordinate set in the (m, n)
    mask: the one array constructor, so only this module knows the format."""
    dense = np.asarray(dense, dtype=float)
    if dense.shape != mask.shape:
        raise ValueError(f"expected shape {mask.shape}, got {dense.shape}")
    # one flat row-major pass, cut into rows: per-row numpy calls cost more
    cols = np.nonzero(mask)[1].tolist()
    vals = dense[mask].tolist()
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    weights = tuple(
        dict(zip(cols[start:end], vals[start:end])) for start, end in zip([0] + ends[:-1], ends)
    )
    return SemilinearEstimator(mask.shape[1], weights)
