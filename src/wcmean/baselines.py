"""Classical weighting estimators used as comparison points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SampleTargetDistribution, SemilinearEstimator, estimator_from_dense
from .optimizer import uniform_init


@dataclass(frozen=True)
class GroupStructure:
    """Disjoint population groups plus per-index inclusion probabilities."""

    groups: tuple[tuple[int, ...], ...]
    inclusion_prob: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.inclusion_prob, dtype=float)
        n = probs.size
        if np.any(probs <= 0.0) or np.any(probs > 1.0):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        groups = tuple(tuple(sorted(int(j) for j in g)) for g in self.groups)
        seen: set[int] = set()
        for g in groups:
            for j in g:
                if not 0 <= j < n:
                    raise ValueError(f"group index {j} outside [0, {n})")
                if j in seen:
                    raise ValueError(f"index {j} appears in more than one group")
                seen.add(j)
        if len(seen) != n:
            raise ValueError("groups must partition the full population")
        probs.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "inclusion_prob", probs)

    @property
    def n(self) -> int:
        return self.inclusion_prob.size


def _require_full_target(dist: SampleTargetDistribution, name: str) -> None:
    full = tuple(range(dist.n))
    for i, pair in enumerate(dist.pairs):
        if pair.target != full:
            raise ValueError(
                f"{name} estimator requires every target set to be the full population"
                f" (pair {i} is not)"
            )


def reweighting_estimator(
    dist: SampleTargetDistribution, gs: GroupStructure
) -> SemilinearEstimator:
    """Inverse-probability weights 1 / (n p_j) on each sampled index."""
    if gs.n != dist.n:
        raise ValueError("group structure population size does not match")
    _require_full_target(dist, "reweighting")
    n = dist.n
    weights = tuple(
        {j: 1.0 / (n * gs.inclusion_prob[j]) for j in pair.sample}
        for pair in dist.pairs
    )
    return SemilinearEstimator(n, weights)


def subgroup_estimator(
    dist: SampleTargetDistribution,
    gs: GroupStructure,
    empty_groups: str = "zero",
) -> SemilinearEstimator:
    """Average of per-group sample means.

    ``empty_groups`` picks the rule for groups with no sampled index:
    "zero" counts them as contributing a zero mean (divide by the total
    number of groups); "drop" averages over the sampled groups only.
    """
    if empty_groups not in ("zero", "drop"):
        raise ValueError(f'empty_groups must be "zero" or "drop", got {empty_groups!r}')
    if gs.n != dist.n:
        raise ValueError("group structure population size does not match")
    _require_full_target(dist, "subgroup")
    weights = []
    for pair in dist.pairs:
        sample = set(pair.sample)
        hits = [[j for j in g if j in sample] for g in gs.groups]
        nonempty = sum(1 for h in hits if h)
        divisor = len(gs.groups) if empty_groups == "zero" else nonempty
        w: dict[int, float] = {}
        if divisor > 0:
            for h in hits:
                for j in h:
                    w[j] = 1.0 / (divisor * len(h))
        weights.append(w)
    return SemilinearEstimator(dist.n, tuple(weights))


def sample_mean_estimator(dist: SampleTargetDistribution) -> SemilinearEstimator:
    """Weight 1/|sample| on each sampled index; zero vector for empty samples."""
    return estimator_from_dense(dist, uniform_init(dist))


def selective_prediction_estimator(
    dist: SampleTargetDistribution,
    window: int | Sequence[int] | None = None,
) -> SemilinearEstimator:
    """Mean of the last min(w, t) observed values of a length-t prefix sample.

    Every sample set must be a prefix {0, ..., t-1} (possibly empty).  The
    per-pair window length defaults to the pair's target-set size; a scalar
    or an m-length sequence overrides it.
    """
    m = dist.m
    if window is None:
        lengths = [len(pair.target) for pair in dist.pairs]
    elif isinstance(window, int):
        lengths = [window] * m
    else:
        lengths = [int(w) for w in window]
        if len(lengths) != m:
            raise ValueError(f"expected {m} window lengths, got {len(lengths)}")
    if any(w < 1 for w in lengths):
        raise ValueError("window lengths must be >= 1")
    weights = []
    for i, pair in enumerate(dist.pairs):
        t = len(pair.sample)
        if pair.sample != tuple(range(t)):
            raise ValueError(f"pair {i}: sample set is not a prefix")
        if t == 0:
            weights.append({})
            continue
        k = min(lengths[i], t)
        weights.append({j: 1.0 / k for j in range(t - k, t)})
    return SemilinearEstimator(dist.n, tuple(weights))


BASELINES = ("reweighting", "subgroup", "sample_mean", "selective_prediction")


def baseline_estimator(
    name: str,
    dist: SampleTargetDistribution,
    gs: GroupStructure | None = None,
    empty_groups: str = "zero",
    window: int | Sequence[int] | None = None,
) -> SemilinearEstimator:
    """Build a named baseline; group-based ones require a GroupStructure."""
    if name == "reweighting":
        if gs is None:
            raise ValueError("reweighting requires a group structure")
        return reweighting_estimator(dist, gs)
    if name == "subgroup":
        if gs is None:
            raise ValueError("subgroup requires a group structure")
        return subgroup_estimator(dist, gs, empty_groups=empty_groups)
    if name == "sample_mean":
        return sample_mean_estimator(dist)
    if name == "selective_prediction":
        return selective_prediction_estimator(dist, window=window)
    raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINES}")
