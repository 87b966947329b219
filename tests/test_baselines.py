"""Comparison estimators: hand-derived weights plus design-rule checks."""

from collections import Counter

import numpy as np
import pytest

from conftest import make_dist
from wcmean.baselines import (
    GroupStructure,
    baseline_estimator,
    reweighting_estimator,
    sample_mean_estimator,
    selective_prediction_estimator,
    subgroup_estimator,
)
from wcmean.collectors import gen_importance, gen_selective, gen_snowball
from wcmean.core import validate_estimator

TOL = 1e-12


def dense_row(n, entries):
    """Length-n weight row holding the index -> weight entries, zero elsewhere."""
    row = np.zeros(n)
    for j, val in entries.items():
        row[j] = val
    return row


def two_point_gs(p0, p1):
    return GroupStructure(groups=((0,), (1,)), inclusion_prob=np.array([p0, p1]))


def test_group_structure_refuses_non_integer_indices():
    # int() truncated the group (0.5, 1.2) to (0, 1), a valid partition here
    with pytest.raises(ValueError, match="group indices must be integers"):
        GroupStructure(groups=((0.5, 1.2), (2,)), inclusion_prob=np.full(3, 0.5))


# ── reweighting ──────────────────────────────────────────────────────


def test_reweighting_uniform_probs_reduce_to_mean():
    dist = make_dist(2, [([0, 1], [0, 1])])
    est = reweighting_estimator(dist, two_point_gs(1.0, 1.0))
    assert est.weights[0] == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


def test_reweighting_half_prob_doubles_weight():
    dist = make_dist(2, [([0, 1], [0, 1])])
    est = reweighting_estimator(dist, two_point_gs(0.5, 1.0))
    assert est.weights[0] == {0: pytest.approx(1.0), 1: pytest.approx(0.5)}


def test_reweighting_empty_sample_is_zero():
    dist = make_dist(2, [([], [0, 1])])
    est = reweighting_estimator(dist, two_point_gs(0.5, 0.5))
    assert est.weights[0] == {}


def test_reweighting_requires_full_targets():
    dist = make_dist(2, [([0], [1])])
    with pytest.raises(ValueError):
        reweighting_estimator(dist, two_point_gs(0.5, 0.5))


def test_reweighting_unbiased_under_own_design():
    # over random inclusion draws, E <a, x> = mean(x) for any fixed x
    dist, gs = gen_importance(m=100_000, seed=41)
    est = reweighting_estimator(dist, gs)
    rng = np.random.default_rng(42)
    x = rng.uniform(-1.0, 1.0, size=dist.n)
    dense = est.dense()
    estimates = dense @ x
    se = estimates.std(ddof=1) / np.sqrt(dist.m)
    assert abs(estimates.mean() - x.mean()) <= 3 * se


# ── subgroup ─────────────────────────────────────────────────────────


def four_point_gs():
    return GroupStructure(
        groups=((0, 1), (2, 3)), inclusion_prob=np.array([0.5, 0.5, 0.5, 0.5])
    )


def test_subgroup_one_sample_per_group():
    dist = make_dist(4, [([0, 2], [0, 1, 2, 3])])
    est = subgroup_estimator(dist, four_point_gs())
    assert est.weights[0] == {0: pytest.approx(0.5), 2: pytest.approx(0.5)}


def test_subgroup_empty_group_rules():
    dist = make_dist(4, [([0, 1], [0, 1, 2, 3])])
    # the unsampled group still counts in the divisor
    est = subgroup_estimator(dist, four_point_gs())
    assert est.weights[0] == {0: pytest.approx(0.25), 1: pytest.approx(0.25)}


def test_subgroup_empty_sample_is_zero():
    dist = make_dist(4, [([], [0, 1, 2, 3])])
    est = subgroup_estimator(dist, four_point_gs())
    assert est.weights[0] == {}


def test_subgroup_weights_average_group_means():
    dist = make_dist(4, [([0, 1, 2], [0, 1, 2, 3])])
    est = subgroup_estimator(dist, four_point_gs())
    # group one sampled twice, group two once: 1/(2*2) and 1/(2*1)
    assert est.weights[0] == {
        0: pytest.approx(0.25),
        1: pytest.approx(0.25),
        2: pytest.approx(0.5),
    }


@pytest.mark.parametrize("m", [150, 2000])
def test_group_baselines_match_closed_forms_on_generated_process(m):
    dist, gs = gen_importance(m=m, seed=0)
    group_of = {j: g for g, members in enumerate(gs.groups) for j in members}
    reweight = np.zeros((dist.m, dist.n))
    subgroup = np.zeros((dist.m, dist.n))
    for i, pair in enumerate(dist.pairs):
        hits = Counter(group_of[j] for j in pair.sample)
        for j in pair.sample:
            reweight[i, j] = 1.0 / (dist.n * gs.inclusion_prob[j])
            subgroup[i, j] = 1.0 / (len(gs.groups) * hits[group_of[j]])
    np.testing.assert_array_equal(reweighting_estimator(dist, gs).dense(), reweight)
    np.testing.assert_array_equal(subgroup_estimator(dist, gs).dense(), subgroup)


# ── sample mean ──────────────────────────────────────────────────────


def test_sample_mean_weights():
    dist = make_dist(6, [([0, 1, 2], [3]), ([5], [0]), ([], [1])])
    est = sample_mean_estimator(dist)
    assert est.weights[0] == {j: pytest.approx(1 / 3) for j in (0, 1, 2)}
    assert est.weights[1] == {5: pytest.approx(1.0)}
    assert est.weights[2] == {}


def test_sample_mean_weights_sum_to_one():
    dist, _ = gen_snowball(n=20, k=7, m=50, seed=2)
    est = sample_mean_estimator(dist)
    for w in est.weights:
        assert abs(sum(w.values()) - 1.0) < TOL


# ── selective prediction ─────────────────────────────────────────────


def test_selective_last_two_mean():
    dist = make_dist(8, [(list(range(4)), [4, 5])])
    est = selective_prediction_estimator(dist)
    assert est.dense()[0] == pytest.approx(dense_row(8, {2: 0.5, 3: 0.5}))


def test_selective_overlap_target_window_excludes_observed_index():
    # the target shares index 5 with the sample, so only 6 and 7 are unseen
    dist = make_dist(8, [(list(range(6)), [5, 6, 7])])
    est = selective_prediction_estimator(dist)
    assert est.dense()[0] == pytest.approx(dense_row(8, {4: 0.5, 5: 0.5}))


def test_selective_clips_window_to_prefix():
    dist = make_dist(16, [([0], [1, 2, 3, 4, 5, 6, 7, 8])])
    est = selective_prediction_estimator(dist)
    assert est.dense()[0] == pytest.approx(dense_row(16, {0: 1.0}))


def test_selective_empty_prefix_is_zero():
    dist = make_dist(4, [([], [1])])
    est = selective_prediction_estimator(dist)
    assert est.dense()[0] == pytest.approx(dense_row(4, {}))


def test_selective_default_window_is_target_size():
    dist = make_dist(10, [(list(range(6)), [6, 7, 8])])
    est = selective_prediction_estimator(dist)
    assert est.dense()[0] == pytest.approx(dense_row(10, {j: 1 / 3 for j in (3, 4, 5)}))


def test_selective_per_pair_windows():
    dist = make_dist(10, [(list(range(4)), [4]), (list(range(6)), [6, 7, 8])])
    est = selective_prediction_estimator(dist)
    assert est.dense()[0] == pytest.approx(dense_row(10, {3: 1.0}))
    assert est.dense()[1] == pytest.approx(dense_row(10, {j: 1 / 3 for j in (3, 4, 5)}))


@pytest.mark.parametrize("overlap", [False, True])
def test_selective_matches_closed_form_on_generated_process(overlap):
    dist = gen_selective(overlap=overlap)
    expected = np.zeros((dist.m, dist.n))
    for i, pair in enumerate(dist.pairs):
        t = len(pair.sample)
        # an overlap target also holds the newest observed point
        k = min(len(pair.target) - overlap, t)
        expected[i, t - k : t] = 1.0 / k
    np.testing.assert_array_equal(selective_prediction_estimator(dist).dense(), expected)


def test_selective_rejects_non_prefix_sample():
    dist = make_dist(6, [([1, 2], [3])])
    with pytest.raises(ValueError):
        selective_prediction_estimator(dist)


def test_selective_rejects_nonpositive_window():
    # every target index of pair 1 is observed: its window would be empty
    dist = make_dist(6, [([0], [1]), ([0, 1, 2], [1, 2])])
    with pytest.raises(ValueError, match="pair 1"):
        selective_prediction_estimator(dist)


# ── dispatch and support invariant ───────────────────────────────────


def test_baseline_dispatch_unknown_name():
    dist = make_dist(2, [([0], [0, 1])])
    with pytest.raises(ValueError):
        baseline_estimator("median", dist)


def test_baseline_dispatch_requires_groups():
    dist = make_dist(2, [([0], [0, 1])])
    with pytest.raises(ValueError):
        baseline_estimator("reweighting", dist)
    with pytest.raises(ValueError):
        baseline_estimator("subgroup", dist)


def test_every_baseline_respects_support():
    imp, gs = gen_importance(m=100, seed=7)
    snow, _ = gen_snowball(m=50, seed=7)
    sel = gen_selective()
    validate_estimator(baseline_estimator("reweighting", imp, gs), imp)
    validate_estimator(baseline_estimator("subgroup", imp, gs), imp)
    validate_estimator(baseline_estimator("sample_mean", snow), snow)
    validate_estimator(baseline_estimator("selective_prediction", sel), sel)
