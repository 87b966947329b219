"""Unconditional error lower bounds from non-expanding index subsets.

A subset S certifies expansion factor alpha when pairs of total
probability alpha either sample inside S while targeting entirely outside
it, or the reverse.  Any estimator, linear or not, must then suffer worst-case
expected squared error at least alpha/4 on cube-bounded data; the
construction realizing it sets the data to 1 on S and to a median-driven
constant off S.

Sets are bit masks, and a pair's side test S & (a | b) == a (or == b)
holds exactly when it holds on both the low and the high bits of S.  So
the exhaustive search gets every subset's mass from one product of
indicator matrices over the two halves (``best_S_bruteforce``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (
    LINF,
    DataValues,
    SampleTargetDistribution,
    SemilinearEstimator,
    validate_estimator,
)

# estimator black box: pair index plus observed values aligned with the
# pair's sorted sample set
PairEstimator = Callable[[int, np.ndarray], float]

_BRUTE_FORCE_MAX_N = 22
_CHUNK_BITS = 15

# subset masses (in pair-weight units) closer than this count as tied
_MASS_TOL = 1e-9


class BruteForceSizeError(ValueError):
    """Population too large for exhaustive subset search."""


@dataclass(frozen=True)
class NonExpansionCertificate:
    """Subset S with the two side pair counts; alpha is the total probability
    of the qualifying pairs ((side1 + side2) / m for a uniform distribution)."""

    subset: tuple[int, ...]
    alpha: float
    side1_count: int
    side2_count: int


def _pair_masks(dist: SampleTargetDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m,) sample and target bit masks (Python ints, so any n fits) and
    whether each pair's two sets are disjoint."""
    a = np.array([sum(1 << j for j in pair.sample) for pair in dist.pairs], dtype=object)
    b = np.array([sum(1 << j for j in pair.target) for pair in dist.pairs], dtype=object)
    return a, b, (a & b) == 0


def _qualifying_sides(S, a: np.ndarray, b: np.ndarray, disjoint: np.ndarray):
    """Boolean side-1 and side-2 indicators of subset mask(s) S against the
    pair masks a (samples) and b (targets), broadcast against each other.

    With c = a | b, a pair qualifies on side 1 (sample inside S, target
    outside) exactly when S & c == a, and on side 2 exactly when S & c == b,
    provided its sets are disjoint; a pair whose sets meet qualifies on
    neither side although the mask tests can hold, so ``disjoint`` clears it.
    """
    hit = S & (a | b)
    return (hit == a) & disjoint, (hit == b) & disjoint


def check_non_expanding(
    dist: SampleTargetDistribution, subset: Iterable[int]
) -> NonExpansionCertificate:
    """Count pairs qualifying on each side of S.

    Side 1: sample inside S and target disjoint from S.  Side 2: sample
    disjoint from S and target inside S.  No pair can satisfy both (targets
    are nonempty), so alpha is the probability of qualifying on exactly one
    side.
    """
    try:
        S = set(map(operator.index, subset))
    except TypeError as exc:  # int would truncate a float index
        raise ValueError(f"subset indices must be integers: {exc}") from None
    for j in S:
        if not 0 <= j < dist.n:
            raise ValueError(f"subset index {j} outside [0, {dist.n})")
    side1, side2 = _qualifying_sides(sum(1 << j for j in S), *_pair_masks(dist))
    alpha = float(dist.pair_weights @ (side1 | side2)) / dist.m
    return NonExpansionCertificate(
        tuple(sorted(S)), alpha, int(side1.sum()), int(side2.sum())
    )


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def best_S_bruteforce(dist: SampleTargetDistribution) -> NonExpansionCertificate:
    """Exhaustive search over all 2^n subsets (n <= 22) for the largest alpha.

    Every side test factors over the low lo = n // 2 bits of S and its high
    bits: S & c == a holds exactly when it holds on both halves.  So the
    weighted count of the pairs qualifying for S = (S_hi, S_lo) is

        mass(S_hi, S_lo) = sum_i w_i ([hi: a_i][lo: a_i] + [hi: b_i][lo: b_i]),

    one (2^hi x 2m) @ (2m x 2^lo) product of 0/1 indicator matrices with the
    weights folded into the high side; a pair whose sets meet weighs zero.
    The subsets are scanned in chunks of 2^15, each chunk's masses being the
    product of the high-side rows covering it: at least 16 rows, since
    products of a few rows run the multiply far below its speed.  Ties
    (alphas within 1e-9 / m) break to the lexicographically smallest subset
    as a sorted index tuple (the empty set first, then prefix order).  The
    chosen subset is recounted by ``check_non_expanding``, so its alpha and
    side counts are exactly what that function reports for it.
    """
    n = dist.n
    if n > _BRUTE_FORCE_MAX_N:
        raise BruteForceSizeError(
            f"exhaustive search supports n <= {_BRUTE_FORCE_MAX_N}, got {n}"
        )
    a, b, disjoint = _pair_masks(dist)
    lo = n // 2
    lo_mask = (1 << lo) - 1
    hi1, hi2 = _qualifying_sides(
        np.arange(1 << (n - lo))[:, None],
        (a >> lo).astype(np.int64),
        (b >> lo).astype(np.int64),
        disjoint,
    )
    lo1, lo2 = _qualifying_sides(
        np.arange(1 << lo)[:, None],
        (a & lo_mask).astype(np.int64),
        (b & lo_mask).astype(np.int64),
        disjoint,
    )
    weights = dist.pair_weights
    high = np.hstack([hi1 * weights, hi2 * weights])
    low = np.vstack([lo1.T, lo2.T]).astype(float)
    rows = (1 << min(_CHUNK_BITS, n)) >> lo
    best_mass = -math.inf
    best_key: tuple[int, ...] | None = None
    for row in range(0, 1 << (n - lo), rows):
        start = row << lo
        masses = (high[row : row + rows] @ low).ravel()
        chunk_max = float(masses.max())
        if chunk_max < best_mass - _MASS_TOL:
            continue
        for idx in np.flatnonzero(masses >= chunk_max - _MASS_TOL):
            if best_key == () and chunk_max <= best_mass + _MASS_TOL:
                break  # nothing is lexicographically smaller than the empty set
            mass = float(masses[idx])
            key = _mask_to_tuple(start + int(idx))
            if mass > best_mass + _MASS_TOL or (
                mass >= best_mass - _MASS_TOL and best_key is not None and key < best_key
            ):
                best_mass = mass
                best_key = key
    assert best_key is not None
    return check_non_expanding(dist, best_key)


def semilinear_callable(
    est: SemilinearEstimator, dist: SampleTargetDistribution
) -> PairEstimator:
    """Wrap a weighting estimator as a black box over observed values."""
    validate_estimator(est, dist)
    vecs = [row[keep] for row, keep in zip(est.dense(), dist.sample_mask)]

    def f(i: int, observed: np.ndarray) -> float:
        observed = np.asarray(observed, dtype=float)
        if observed.size != vecs[i].size:
            raise ValueError(
                f"pair {i}: expected {vecs[i].size} observed values, got {observed.size}"
            )
        return float(vecs[i] @ observed)

    return f


def adversarial_values(
    dist: SampleTargetDistribution,
    subset: Iterable[int],
    f: PairEstimator,
) -> tuple[DataValues, float]:
    """Data on the cube realizing error >= alpha/4 against the black box f.

    Restricts to the qualifying side of larger probability (swapping S for
    its complement if needed), takes c as the probability-weighted lower
    median of f on all-ones observations there, and sets the data to 1 on S
    and -sign(c) off S (sign(0) := +1).  Restricted pairs holding at least
    half the side's probability then suffer squared error >= 1.  Returns the
    data vector and the achieved expected error over all pairs.
    """
    cert = check_non_expanding(dist, subset)
    if cert.alpha <= 0.0:
        raise ValueError("subset certifies alpha = 0; no adversarial data exists")
    S = set(cert.subset)
    weights = dist.pair_weights
    side1, side2 = _qualifying_sides(sum(1 << j for j in S), *_pair_masks(dist))
    if weights @ side2 > weights @ side1:
        S = set(range(dist.n)) - S
        side1 = side2  # side 2 of S is side 1 of its complement
    restricted = np.flatnonzero(side1)
    values = np.array([f(int(i), np.ones(len(dist.pairs[i].sample))) for i in restricted])
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[restricted][order])
    c = values[order][np.searchsorted(cum, cum[-1] / 2.0)]
    sign_c = 1.0 if c >= 0 else -1.0
    x = np.full(dist.n, -sign_c)
    if S:
        x[sorted(S)] = 1.0
    errors = np.array([
        (f(i, x[list(pair.sample)]) - float(np.mean(x[list(pair.target)]))) ** 2
        for i, pair in enumerate(dist.pairs)
    ])
    return DataValues(x, LINF), float(weights @ errors) / dist.m
