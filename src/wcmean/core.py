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
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

LINF = "linf"
L2 = "l2"

# slack on the norm-ball membership checks
_REGIME_TOL = 1e-12

# allowed deviation of a probability vector's sum from one
_PROB_SUM_TOL = 1e-9


def _is_int(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive_float(name: str, value) -> float:
    """``value`` as a float if it is an int or a float (numpy scalars
    included, bools not) that is positive and finite; else ValueError, also
    for an int beyond float range."""
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{name} must be a float, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be positive and finite, got an int beyond float range") from None
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


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
            # operator.index refuses a float where int would truncate it
            try:
                sample = tuple(sorted(set(map(operator.index, pair.sample))))
                if pair.target is last_raw:
                    target = last_target
                else:
                    target = tuple(sorted(set(map(operator.index, pair.target))))
            except TypeError as exc:
                raise ValueError(f"pair {i}: indices must be integers: {exc}") from None
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
        mask[_entries([pair.sample for pair in self.pairs])] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def target_rows(self) -> np.ndarray:
        """(m, n) matrix whose row i is the target-averaging vector b_i."""
        rows = np.zeros((self.m, self.n))
        i, j = _entries([pair.target for pair in self.pairs])
        rows[i, j] = 1.0 / np.bincount(i)[i]
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True, init=False, eq=False)
class SemilinearEstimator:
    """Per-pair weight vectors, stored as one masked (m, n) array.

    Row ``i`` answers pair ``i``: ``support[i]`` marks the coordinates its
    weight vector uses, and every one must lie in the pair's sample set of
    the distribution the estimator is used with.  ``values`` holds the
    weights, zero off the support; a support entry may hold an explicit
    zero.  Both arrays are read-only, and ``dense()`` returns a writable
    copy of ``values``.  The arrays are built by ``estimator_from_dense`` or
    read from the sparse JSON form.  The ``(n, weights)`` constructor from
    index -> weight maps and the ``weights`` view, rebuilt on each read, are
    adapters kept for the benchmark's checks only.
    """

    n: int
    support: np.ndarray
    values: np.ndarray

    def __init__(self, n: int, weights: tuple[dict[int, float], ...]):
        if n < 1:
            raise ValueError(f"population size must be >= 1, got {n}")
        if len(weights) < 1:
            raise ValueError("at least one weight vector is required")
        for i, w in enumerate(weights):
            for j, val in w.items():
                if not 0 <= int(j) < n:
                    raise ValueError(f"weights[{i}]: index {j} outside [0, {n})")
                if not math.isfinite(val):
                    raise ValueError(f"weights[{i}][{j}] is not finite")
        _set_arrays(self, *_scatter(n, weights))

    @property
    def m(self) -> int:
        return self.support.shape[0]

    def dense(self) -> np.ndarray:
        """(m, n) dense weight matrix, a writable copy."""
        return self.values.copy()

    def __eq__(self, other):
        if not isinstance(other, SemilinearEstimator):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.values, other.values)
        )

    def _rows(self) -> list[tuple[list[int], list[float]]]:
        """Each row's support columns and values, from one row-major pass."""
        cols = np.nonzero(self.support)[1].tolist()
        vals = self.values[self.support].tolist()
        ends = np.cumsum(self.support.sum(axis=1)).tolist()
        return [(cols[s:e], vals[s:e]) for s, e in zip([0] + ends[:-1], ends)]

    @property
    def weights(self) -> tuple[MappingProxyType, ...]:
        """Read-only index -> weight map per pair, listing every support
        entry, explicit zeros included."""
        return tuple(MappingProxyType(dict(zip(c, v))) for c, v in self._rows())


def _entries(indices) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the entries of per-row index
    collections: row i holds the indices that ``indices[i]`` yields."""
    rows = np.repeat(np.arange(len(indices)), [len(idx) for idx in indices])
    return rows, np.fromiter(chain.from_iterable(indices), np.intp, len(rows))


def _scatter(n: int, weights) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) support and values of checked index -> weight maps."""
    rows, cols = _entries(weights)
    vals = np.fromiter(chain.from_iterable(w.values() for w in weights), float, len(rows))
    support = np.zeros((len(weights), n), dtype=bool)
    values = np.zeros((len(weights), n))
    support[rows, cols] = True
    values[rows, cols] = vals
    return support, values


def _set_arrays(
    est: SemilinearEstimator, support: np.ndarray, values: np.ndarray
) -> SemilinearEstimator:
    """Store the (m, n) support and values on est, making both read-only."""
    support.setflags(write=False)
    values.setflags(write=False)
    object.__setattr__(est, "n", support.shape[1])
    object.__setattr__(est, "support", support)
    object.__setattr__(est, "values", values)
    return est


@dataclass(frozen=True)
class DataValues:
    """A data vector, optionally certified to lie in a norm ball.

    ``norm_regime`` is "linf" (max |x_j| <= 1), "l2" (||x|| <= sqrt(n)) or
    None when no ball membership is asserted (arbitrary fixed datasets).
    """

    values: np.ndarray
    norm_regime: str | None = None

    def __post_init__(self):
        # a copy, as the stored vector is made read-only
        vals = np.array(self.values, dtype=float)
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
    expected squared estimation error on data x.  The rows go unchecked:
    each solver checks the Gram it factors.
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

    def quad(self, x: np.ndarray) -> float:
        """x^T M x, nonnegative by construction.  A non-finite result, from
        non-finite rows or an overflow, raises ValueError, not a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.rows @ np.asarray(x, dtype=float)
            value = float(y @ y)
        if not math.isfinite(value):
            raise ValueError("loss matrix quadratic form is non-finite")
        return value


def _check_shape(n: int, m: int, dist: SampleTargetDistribution) -> None:
    if n != dist.n:
        raise ValueError(f"population size mismatch: estimator {n}, distribution {dist.n}")
    if m != dist.m:
        raise ValueError(f"pair count mismatch: estimator {m}, distribution {dist.m}")


def validate_estimator(est: SemilinearEstimator, dist: SampleTargetDistribution) -> None:
    """Check n/m consistency and that the support lies in the sample sets.

    One array test, ``support & ~dist.sample_mask``; a SupportError names
    the first offending (i, j) in row-major order.
    """
    _check_shape(est.n, est.m, dist)
    outside = est.support & ~dist.sample_mask
    if outside.any():
        i, j = np.argwhere(outside)[0].tolist()
        raise SupportError(f"weights[{i}]: index {j} outside the sample set")


def loss_factor(dist: SampleTargetDistribution, resid: np.ndarray) -> LossMatrix:
    """Loss matrix from (m, n) residuals a - b: rows r_i sqrt(w_i / m) = r_i sqrt(pi_i)."""
    return LossMatrix(dist.n, resid * np.sqrt(dist.pair_weights)[:, None] / math.sqrt(dist.m))


def build_loss_matrix(est: SemilinearEstimator, dist: SampleTargetDistribution) -> LossMatrix:
    """Assemble M(a) = sum_i pi_i (a_i - b_i)(a_i - b_i)^T in factored form."""
    validate_estimator(est, dist)
    return loss_factor(dist, est.values - dist.target_rows)


def fixed_data_error(
    est: SemilinearEstimator,
    dist: SampleTargetDistribution,
    x: DataValues | np.ndarray,
) -> float:
    """Expected squared error sum_i pi_i <a_i - b_i, x>^2 on fixed data x, a
    DataValues or a raw array checked as one with no norm regime."""
    vals = (x if isinstance(x, DataValues) else DataValues(x)).values
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


def estimator_from_dict(
    data, dist: SampleTargetDistribution | None = None
) -> SemilinearEstimator:
    """Read the sparse JSON form, naming the first fault in a SchemaError.

    Given ``dist``, the file's n and m are checked against it before the
    (m, n) arrays are built, so a file cannot size them beyond the
    distribution's.
    """
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
    if dist is not None:
        _check_shape(n, len(weights), dist)
    return _set_arrays(object.__new__(SemilinearEstimator), *_scatter(n, weights))


def estimator_to_dict(est: SemilinearEstimator) -> dict:
    return {
        "n": est.n,
        "weights": [[[j, val] for j, val in zip(c, v)] for c, v in est._rows()],
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
    # the dict is built fresh, so it holds no cycle to look for
    Path(path).write_text(json.dumps(distribution_to_dict(dist), check_circular=False) + "\n")


def load_estimator_file(
    path: str | Path, dist: SampleTargetDistribution | None = None
) -> SemilinearEstimator:
    return estimator_from_dict(_load_json(path), dist)


def save_estimator_file(est: SemilinearEstimator, path: str | Path) -> None:
    # a fresh dict too
    Path(path).write_text(json.dumps(estimator_to_dict(est), check_circular=False) + "\n")


def estimator_from_dense(
    dist: SampleTargetDistribution, dense: np.ndarray
) -> SemilinearEstimator:
    """Wrap a dense (m, n) weight array, keeping every sample-set coordinate."""
    return _estimator_on_mask(dist.sample_mask, dense)


def _estimator_on_mask(mask: np.ndarray, dense: np.ndarray) -> SemilinearEstimator:
    """Wrap a dense weight array on the (m, n) support mask, which is kept
    as given (shared, when read-only), and zero off it: the constructor
    other modules reach, so only this module knows the format."""
    dense = np.asarray(dense, dtype=float)
    if dense.shape != mask.shape:
        raise ValueError(f"expected shape {mask.shape}, got {dense.shape}")
    values = np.where(mask, dense, 0.0)
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise ValueError(f"weights[{i}][{j}] is not finite")
    if mask.flags.writeable:  # the caller may still write it
        mask = mask.copy()
    return _set_arrays(object.__new__(SemilinearEstimator), mask, values)
