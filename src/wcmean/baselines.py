"""Classical weighting estimators used as comparison points.

Each is built from the distribution and, for the group-based ones, its
group structure alone.  Selective prediction reads its window from each
pair, so ``wcmean evaluate`` on an overlap process scores the estimator
that ``wcmean experiment selective --overlap-windows`` reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import SampleTargetDistribution, SemilinearEstimator, estimator_from_dense


@dataclass(frozen=True)
class GroupStructure:
    """Disjoint population groups plus per-index inclusion probabilities."""

    groups: tuple[tuple[int, ...], ...]
    inclusion_prob: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.inclusion_prob, dtype=float)
        n = probs.size
        if probs.ndim != 1 or not np.all((probs > 0.0) & (probs <= 1.0)):
            raise ValueError("inclusion probabilities must be a 1-D array of values in (0, 1]")
        try:
            groups = tuple(tuple(sorted(map(operator.index, g))) for g in self.groups)
        except TypeError as exc:  # int would truncate a float index
            raise ValueError(f"group indices must be integers: {exc}") from None
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
    return estimator_from_dense(dist, dist.sample_mask / (dist.n * gs.inclusion_prob))


def subgroup_estimator(
    dist: SampleTargetDistribution, gs: GroupStructure
) -> SemilinearEstimator:
    """Average of per-group sample means.

    A group with no sampled index contributes a zero mean: the divisor is
    always the total number of groups.
    """
    if gs.n != dist.n:
        raise ValueError("group structure population size does not match")
    _require_full_target(dist, "subgroup")
    dense = np.zeros((dist.m, dist.n))
    for g in gs.groups:
        cols = list(g)
        hit = dist.sample_mask[:, cols]
        # a row with no hit in g is all zero: its divisor only avoids 0 / 0
        count = np.maximum(hit.sum(axis=1, keepdims=True), 1)
        dense[:, cols] = hit / (len(gs.groups) * count)
    return estimator_from_dense(dist, dense)


def uniform_init(dist: SampleTargetDistribution) -> np.ndarray:
    """The sample mean's weights, where OGD starts: 1/|sample| on each sample
    set, zero rows for empty samples."""
    masks = dist.sample_mask
    counts = masks.sum(axis=1, keepdims=True).astype(float)
    counts[counts == 0.0] = 1.0
    return masks / counts


def sample_mean_estimator(dist: SampleTargetDistribution) -> SemilinearEstimator:
    """Weight 1/|sample| on each sampled index; zero vector for empty samples."""
    return estimator_from_dense(dist, uniform_init(dist))


def selective_prediction_estimator(dist: SampleTargetDistribution) -> SemilinearEstimator:
    """Mean of the last min(w, t) observed values of a length-t prefix sample.

    Every sample set must be a prefix {0, ..., t-1} (possibly empty).  The
    window w of a pair is the number of its target indices that are not
    observed: |B| for a target after the prefix, |B| - 1 for one that
    also holds the newest observed point.  Both equal the w that
    ``collectors.gen_selective`` drew, under either target convention.
    """
    dense = np.zeros((dist.m, dist.n))
    for i, pair in enumerate(dist.pairs):
        t = len(pair.sample)
        if pair.sample != tuple(range(t)):
            raise ValueError(f"pair {i}: sample set is not a prefix")
        w = sum(1 for j in pair.target if j >= t)
        if w == 0:
            raise ValueError(f"pair {i}: every target index is observed, so there is no window")
        k = min(w, t)
        if k:
            dense[i, t - k : t] = 1.0 / k
    return estimator_from_dense(dist, dense)


BASELINES = ("reweighting", "subgroup", "sample_mean", "selective_prediction")


def baseline_estimator(
    name: str,
    dist: SampleTargetDistribution,
    gs: GroupStructure | None = None,
) -> SemilinearEstimator:
    """Build a named baseline; group-based ones require a GroupStructure."""
    if name == "reweighting":
        if gs is None:
            raise ValueError("reweighting requires a group structure")
        return reweighting_estimator(dist, gs)
    if name == "subgroup":
        if gs is None:
            raise ValueError("subgroup requires a group structure")
        return subgroup_estimator(dist, gs)
    if name == "sample_mean":
        return sample_mean_estimator(dist)
    if name == "selective_prediction":
        return selective_prediction_estimator(dist)
    raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINES}")
