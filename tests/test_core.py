"""Core types: validation, loss matrix, serialization round-trips."""

import json

import numpy as np
import pytest

from conftest import make_dist
from wcmean.core import (
    IndexPair,
    SampleTargetDistribution,
    SchemaError,
    SemilinearEstimator,
    SupportError,
    build_loss_matrix,
    distribution_from_dict,
    estimator_from_dense,
    fixed_data_error,
    load_distribution_file,
    load_estimator_file,
    save_distribution_file,
    save_estimator_file,
    validate_estimator,
)
from wcmean.lowerbound import semilinear_callable

TOL = 1e-12


# ── distribution construction and masks ─────────────────────────────


def test_dist_basic_properties():
    dist = make_dist(3, [([0, 1], [2]), ([2], [0, 1, 2])])
    assert dist.n == 3
    assert dist.m == 2
    np.testing.assert_array_equal(
        dist.sample_mask, [[True, True, False], [False, False, True]]
    )
    np.testing.assert_allclose(
        dist.target_rows, [[0, 0, 1.0], [1 / 3, 1 / 3, 1 / 3]], atol=TOL
    )


def test_dist_rejects_empty_target():
    with pytest.raises((SchemaError, ValueError)):
        make_dist(3, [([0], [])])


def test_dist_rejects_out_of_range_index():
    with pytest.raises((SchemaError, ValueError)):
        make_dist(3, [([0, 3], [1])])


@pytest.mark.parametrize(
    "sample, target, message",
    [
        ([3, -2, -5], [0], "pair 1: index -5 outside [0, 4)"),
        ([6, 1, 4, 9], [0], "pair 1: index 4 outside [0, 4)"),
        ([1], [2, 5, 4], "pair 1: index 4 outside [0, 4)"),
        ([7], [-1], "pair 1: index 7 outside [0, 4)"),
        ([-1], [], "pair 1: target set is empty"),
    ],
)
def test_dist_names_the_first_bad_index(sample, target, message):
    # the smallest offender, sample before target, as the sorted sets are scanned
    with pytest.raises(ValueError) as err:
        make_dist(4, [([0], [1]), (sample, target)])
    assert str(err.value) == message


def test_dist_canonicalizes_a_shared_target_for_every_pair():
    target = (3, 1, np.int64(1))
    pairs = (IndexPair((2, 0), target), IndexPair((1,), target), IndexPair((), (1, 3)), IndexPair((3,), target))
    dist = SampleTargetDistribution(4, pairs)
    assert [p.target for p in dist.pairs] == [(1, 3)] * 4
    assert all(type(j) is int for p in dist.pairs for j in p.target)
    assert [p.sample for p in dist.pairs] == [(0, 2), (1,), (), (3,)]
    with pytest.raises(ValueError, match="pair 1: index 4 outside"):
        SampleTargetDistribution(4, (IndexPair((0,), (1,)), IndexPair((0,), (4, 1)), IndexPair((0,), (4, 1))))


def test_dist_canonicalizes_duplicates_and_order():
    # direct construction canonicalizes; strict rejection is the loader's job
    dist = make_dist(3, [([2, 0, 0], [1])])
    assert dist.pairs[0].sample == (0, 2)


def test_empty_sample_is_allowed():
    dist = make_dist(2, [([], [0, 1])])
    assert dist.pairs[0].sample == ()


# ── estimator support invariant ──────────────────────────────────────


def test_validate_estimator_accepts_supported_weights():
    dist = make_dist(3, [([0, 1], [2])])
    est = SemilinearEstimator(3, ({0: 0.4, 1: 0.6},))
    validate_estimator(est, dist)  # should not raise


def test_validate_estimator_rejects_off_support_weight():
    dist = make_dist(3, [([0, 1], [2])])
    est = SemilinearEstimator(3, ({0: 0.4, 2: 0.6},))
    with pytest.raises(SupportError):
        validate_estimator(est, dist)


def test_estimator_from_dense_accepts_masked_zero_entries():
    dist = make_dist(3, [([0, 1], [2])])
    arr = np.array([[0.3, 0.7, 0.0]])
    est = estimator_from_dense(dist, arr)
    assert est.weights[0] == {0: 0.3, 1: 0.7}


# ── loss matrix: hand-computed 2x2 oracle ────────────────────────────
# one pair, A = {0}, B = {0, 1}, a = e_0:
# a - b = (0.5, -0.5), M = [[.25, -.25], [-.25, .25]]


def hand_case():
    dist = make_dist(2, [([0], [0, 1])])
    est = SemilinearEstimator(2, ({0: 1.0},))
    return dist, est


def test_build_loss_matrix_hand_case():
    dist, est = hand_case()
    M = build_loss_matrix(est, dist)
    np.testing.assert_allclose(
        M.dense, [[0.25, -0.25], [-0.25, 0.25]], atol=TOL
    )
    assert abs(M.trace - 0.5) < TOL


def test_fixed_data_error_hand_case():
    dist, est = hand_case()
    # x = (1, -1): estimate 1, truth 0, squared error 1 = x^T M x
    assert abs(fixed_data_error(est, dist, np.array([1.0, -1.0])) - 1.0) < TOL
    # constant data: estimate equals truth
    assert abs(fixed_data_error(est, dist, np.ones(2))) < TOL


def test_loss_matrix_quad_matches_dense():
    rng = np.random.default_rng(5)
    dist = make_dist(4, [([0, 2], [1, 3]), ([1], [0, 1, 2, 3])])
    arr = np.where(dist.sample_mask, rng.standard_normal((2, 4)), 0.0)
    est = estimator_from_dense(dist, arr)
    M = build_loss_matrix(est, dist)
    for _ in range(10):
        x = rng.standard_normal(4)
        assert abs(M.quad(x) - x @ M.dense @ x) < 1e-9


def test_fixed_data_error_equals_quadratic_form():
    rng = np.random.default_rng(6)
    dist = make_dist(5, [([0, 1, 2], [3, 4]), ([2, 4], [0, 1])])
    arr = np.where(dist.sample_mask, rng.standard_normal((2, 5)), 0.0)
    est = estimator_from_dense(dist, arr)
    M = build_loss_matrix(est, dist)
    for _ in range(5):
        x = rng.standard_normal(5)
        assert abs(fixed_data_error(est, dist, x) - M.quad(x)) < 1e-9


def test_evaluate_pointwise():
    dist = make_dist(3, [([0, 2], [1])])
    est = SemilinearEstimator(3, ({0: 0.25, 2: 0.75},))
    # observed values are aligned with the sorted sample set
    value = semilinear_callable(est, dist)(0, np.array([2.0, 4.0]))
    assert abs(value - (0.25 * 2.0 + 0.75 * 4.0)) < TOL
    with pytest.raises(ValueError):
        semilinear_callable(est, dist)(0, np.array([2.0]))


# ── serialization ────────────────────────────────────────────────────


def test_distribution_round_trip(tmp_path):
    dist = make_dist(4, [([0, 1], [2, 3]), ([3], [0])])
    path = tmp_path / "dist.json"
    save_distribution_file(dist, path)
    loaded = load_distribution_file(path)
    assert loaded.n == dist.n
    assert loaded.pairs == dist.pairs


def test_estimator_round_trip(tmp_path):
    est = SemilinearEstimator(3, ({0: 0.5, 1: 0.5}, {2: 1.0}))
    path = tmp_path / "est.json"
    save_estimator_file(est, path)
    loaded = load_estimator_file(path)
    assert loaded.n == est.n
    assert loaded.weights == est.weights


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError) as exc:
        load_distribution_file(path)
    assert exc.value.code


def test_load_rejects_empty_target(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "pairs": [{"A": [0], "B": []}]}))
    with pytest.raises(SchemaError):
        load_distribution_file(path)


def test_load_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "pairs": [{"A": [0, 2], "B": [1]}]}))
    with pytest.raises(SchemaError):
        load_distribution_file(path)


def test_schema_error_codes_are_distinct(tmp_path):
    cases = {
        "malformed": "{oops",
        "empty_target": json.dumps({"n": 2, "pairs": [{"A": [0], "B": []}]}),
        "out_of_range": json.dumps({"n": 2, "pairs": [{"A": [5], "B": [1]}]}),
        "duplicate": json.dumps({"n": 2, "pairs": [{"A": [0, 0], "B": [1]}]}),
        "unsorted": json.dumps({"n": 3, "pairs": [{"A": [1, 0], "B": [2]}]}),
    }
    codes = {}
    for label, text in cases.items():
        path = tmp_path / f"{label}.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as exc:
            load_distribution_file(path)
        codes[label] = exc.value.code
    assert len(set(codes.values())) == len(codes), codes


def test_distribution_from_dict_rejects_unsorted():
    # unsorted index lists are rejected by the loader, not repaired
    data = {"n": 3, "pairs": [{"A": [1, 0], "B": [2]}]}
    with pytest.raises(SchemaError):
        distribution_from_dict(data)


# ── pair probabilities ───────────────────────────────────────────────


def test_distribution_probabilities_round_trip(tmp_path):
    dist = SampleTargetDistribution(
        4,
        (IndexPair((0, 1), (2, 3)), IndexPair((3,), (0,))),
        (0.7, 0.3),
    )
    path = tmp_path / "dist.json"
    save_distribution_file(dist, path)
    data = json.loads(path.read_text())
    assert [p["p"] for p in data["pairs"]] == [0.7, 0.3]
    loaded = load_distribution_file(path)
    assert loaded.pairs == dist.pairs
    assert loaded.probs == (0.7, 0.3)
    np.testing.assert_allclose(loaded.pair_weights, [1.4, 0.6])


def test_uniform_distribution_writes_no_probabilities(tmp_path):
    dist = make_dist(3, [([0], [1]), ([1], [2])])
    path = tmp_path / "dist.json"
    save_distribution_file(dist, path)
    assert all("p" not in p for p in json.loads(path.read_text())["pairs"])
    loaded = load_distribution_file(path)
    assert loaded.probs is None
    np.testing.assert_array_equal(loaded.pair_weights, [1.0, 1.0])


@pytest.mark.parametrize(
    "probs, code",
    [
        ([1.5, -0.5], "negative_probability"),
        ([float("nan"), 0.5], "nonfinite_probability"),
        ([float("inf"), 0.5], "nonfinite_probability"),
        ([0.5, 0.4], "probability_sum"),
        ([0.5, "0.5"], "bad_schema"),
        ([0.5, None], "bad_schema"),
    ],
)
def test_probability_schema_error_codes(tmp_path, probs, code):
    pairs = [{"A": [0], "B": [1], "p": probs[0]}, {"A": [1], "B": [0], "p": probs[1]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "pairs": pairs}))
    with pytest.raises(SchemaError) as exc:
        load_distribution_file(path)
    assert exc.value.code == code


def test_probabilities_must_be_given_for_all_pairs_or_none():
    data = {"n": 2, "pairs": [{"A": [0], "B": [1], "p": 1.0}, {"A": [1], "B": [0]}]}
    with pytest.raises(SchemaError) as exc:
        distribution_from_dict(data)
    assert exc.value.code == "bad_schema"


def test_constructor_rejects_bad_probabilities():
    pairs = (IndexPair((0,), (1,)), IndexPair((1,), (0,)))
    with pytest.raises(ValueError):
        SampleTargetDistribution(2, pairs, (1.0,))
    with pytest.raises(ValueError):
        SampleTargetDistribution(2, pairs, (0.6, 0.6))
    with pytest.raises(ValueError):
        SampleTargetDistribution(2, pairs, (-0.1, 1.1))
