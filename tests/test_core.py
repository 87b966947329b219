"""Core types: validation, loss matrix, serialization round-trips."""

import json
import math

import numpy as np
import pytest

from conftest import make_dist, random_dist
from wcmean.core import (
    L2,
    LINF,
    DataValues,
    IndexPair,
    SampleTargetDistribution,
    SchemaError,
    SemilinearEstimator,
    SupportError,
    build_loss_matrix,
    distribution_from_dict,
    estimator_from_dense,
    estimator_from_dict,
    fixed_data_error,
    load_distribution_file,
    load_estimator_file,
    save_distribution_file,
    save_estimator_file,
    validate_estimator,
)
from wcmean.baselines import selective_prediction_estimator
from wcmean.collectors import gen_selective
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


def loop_masks(dist):
    """sample_mask and target_rows built pair by pair."""
    mask = np.zeros((dist.m, dist.n), dtype=bool)
    rows = np.zeros((dist.m, dist.n))
    for i, pair in enumerate(dist.pairs):
        mask[i, list(pair.sample)] = True
        rows[i, list(pair.target)] = 1.0 / len(pair.target)
    return mask, rows


@pytest.mark.parametrize("kind", ["random", "weighted", "empty-samples", "all-empty"])
def test_masks_match_a_per_pair_loop(kind):
    rng = np.random.default_rng(31)
    dist = random_dist(rng, 9, 14)
    if kind == "weighted":
        probs = rng.random(dist.m) + 0.1
        dist = SampleTargetDistribution(dist.n, dist.pairs, tuple(probs / probs.sum()))
    if kind == "empty-samples":
        pairs = [IndexPair(() if i % 3 else p.sample, p.target) for i, p in enumerate(dist.pairs)]
        dist = SampleTargetDistribution(dist.n, tuple(pairs))
    if kind == "all-empty":
        dist = make_dist(4, [([], [0, 1]), ([], [3]), ([], [0, 1, 2, 3])])
    mask, rows = loop_masks(dist)
    assert mask.any(axis=1).all() == (kind in ("random", "weighted"))
    assert dist.sample_mask.dtype == mask.dtype and dist.target_rows.dtype == rows.dtype
    # bit for bit, the 1/|B_i| entries included
    assert dist.sample_mask.tobytes() == mask.tobytes()
    assert dist.target_rows.tobytes() == rows.tobytes()
    assert not dist.sample_mask.flags.writeable and not dist.target_rows.flags.writeable


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


@pytest.mark.parametrize(
    "sample, target",
    [((0.7, True), (2.2,)), ((0,), (2.2,)), ((np.float64(1.0),), (2,))],
)
def test_dist_refuses_non_integer_indices(sample, target):
    # int() truncated each one: (0.7, True) was kept as the sample (0, 1)
    with pytest.raises(ValueError, match="pair 1: indices must be integers"):
        SampleTargetDistribution(3, (IndexPair((0,), (1,)), IndexPair(sample, target)))


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


def test_validate_estimator_names_the_first_offending_entry():
    dist = make_dist(4, [([0, 1], [2]), ([0], [1]), ([1], [0])])
    est = SemilinearEstimator(4, ({0: 0.4}, {0: 0.1, 2: 0.5, 3: 0.2}, {0: 1.0}))
    with pytest.raises(SupportError, match=r"^weights\[1\]: index 2 outside the sample set$"):
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
    assert abs(float(np.sum(M.rows * M.rows)) - 0.5) < TOL


def test_fixed_data_error_hand_case():
    dist, est = hand_case()
    # x = (1, -1): estimate 1, truth 0, squared error 1 = x^T M x
    assert abs(fixed_data_error(est, dist, np.array([1.0, -1.0])) - 1.0) < TOL
    # constant data: estimate equals truth
    assert abs(fixed_data_error(est, dist, np.ones(2))) < TOL


@pytest.mark.parametrize(
    "x, message",
    [
        (np.full(2, np.nan), "data values must be finite"),
        (np.array([1.0, np.inf]), "data values must be finite"),
        (np.ones((2, 1)), "data values must be a nonempty 1-D vector"),
        (np.ones(3), "data vector has size 3, expected 2"),
    ],
)
def test_fixed_data_error_checks_a_raw_array(x, message):
    # a raw array goes through the same checks as DataValues, and the size
    # is checked against the distribution after them
    dist, est = hand_case()
    with pytest.raises(ValueError) as err:
        fixed_data_error(est, dist, x)
    assert str(err.value) == message
    if x.ndim == 1 and np.all(np.isfinite(x)):
        with pytest.raises(ValueError, match="data vector has size 3"):
            fixed_data_error(est, dist, DataValues(x))


@pytest.mark.parametrize(
    "weight, x",
    [(1e200, np.ones(2)), (1.0, np.array([1e200, -1e200]))],
    ids=["weights", "data"],
)
def test_fixed_data_error_refuses_an_overflowing_quadratic_form(weight, x):
    # finite weights and data whose loss x^T M x overflows: a ValueError,
    # with numpy's overflow warning kept in
    dist = make_dist(2, [([0], [0, 1]), ([1], [1])])
    est = estimator_from_dense(dist, np.array([[weight, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        fixed_data_error(est, dist, x)


@pytest.mark.parametrize("regime", [None, LINF, L2])
def test_data_values_leave_the_callers_array_writable(regime):
    a = np.ones(4)
    data = DataValues(a, regime)
    assert a.flags.writeable and not data.values.flags.writeable
    a[0] = -1.0
    assert data.values[0] == 1.0


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


# ── the estimator file's first fault ─────────────────────────────────
# Each fault sits in row 1, between a valid row 0 and a row 2 that is out
# of range, so the message must name row 1's fault, not row 2's.


@pytest.mark.parametrize(
    "row, code, message",
    [
        ("x", "bad_schema", "weights[1]: expected a list of [index, value]"),
        ([[1, 0.5], 7], "bad_schema", "weights[1]: entries must be [index, value]"),
        ([[1, 0.5, 0.5]], "bad_schema", "weights[1]: entries must be [index, value]"),
        ([[True, 0.5]], "bad_schema", "weights[1]: entries must be [index, value]"),
        ([[1.0, 0.5]], "bad_schema", "weights[1]: entries must be [index, value]"),
        ([[1, True]], "bad_schema", "weights[1]: entries must be [index, value]"),
        ([[-1, 0.5]], "index_out_of_range", "weights[1]: index -1 outside [0, 3)"),
        ([[3, 0.5]], "index_out_of_range", "weights[1]: index 3 outside [0, 3)"),
        ([[10**30, 0.5]], "index_out_of_range", f"weights[1]: index {10**30} outside [0, 3)"),
        ([[2, 0.5], [1, 0.5], [2, 0.5]], "duplicate_indices", "weights[1]: duplicate index 2"),
        ([[1, 0.5], [2, math.inf]], "bad_schema", "weights[1][2] is not finite"),
        ([[1, 10**400]], "bad_schema", "weights[1]: value too large for a float"),
    ],
)
def test_estimator_file_names_its_first_fault(tmp_path, row, code, message):
    path = tmp_path / "est.json"
    # json writes inf as Infinity, which json.loads reads back as a float
    path.write_text(json.dumps({"n": 3, "weights": [[[0, 0.5], [2, 1]], row, [[5, 0.5]]]}))
    with pytest.raises(SchemaError) as exc:
        load_estimator_file(path)
    assert (exc.value.code, str(exc.value)) == (code, message)


def test_estimator_file_is_checked_against_the_distribution_before_building(tmp_path):
    # a few bytes claiming n = 10**15 would ask for petabytes of arrays
    dist = make_dist(3, [([0, 1], [2]), ([2], [0])])
    path = tmp_path / "est.json"
    path.write_text(json.dumps({"n": 10**15, "weights": [[[0, 1.0]], []]}))
    with pytest.raises(ValueError, match=r"^population size mismatch: estimator 10{15}, distribution 3$"):
        load_estimator_file(path, dist)
    with pytest.raises(ValueError, match=r"^pair count mismatch: estimator 5, distribution 2$"):
        estimator_from_dict({"n": 3, "weights": [[]] * 5}, dist)
    # a fault inside the file is still named first, as without the distribution
    with pytest.raises(SchemaError, match=r"duplicate index 0"):
        estimator_from_dict({"n": 10**15, "weights": [[[0, 1.0], [0, 1.0]]]}, dist)
    est = estimator_from_dict({"n": 3, "weights": [[[0, 0.5], [1, 0.5]], [[2, 1]]]}, dist)
    assert est == SemilinearEstimator(3, ({0: 0.5, 1: 0.5}, {2: 1.0}))


def test_estimator_file_keeps_explicit_zeros_byte_for_byte(tmp_path):
    dist = gen_selective(n=12, windows=(1, 2, 4))
    est = selective_prediction_estimator(dist)
    dense = est.dense()
    # the index -> weight maps the dict format held: every sample-set entry
    maps = [{j: float(dense[i, j]) for j in pair.sample} for i, pair in enumerate(dist.pairs)]
    assert any(0.0 in w.values() for w in maps)
    assert est.weights == tuple(maps)
    path = tmp_path / "est.json"
    save_estimator_file(est, path)
    rows = [[[j, w[j]] for j in sorted(w)] for w in maps]
    assert path.read_text() == json.dumps({"n": dist.n, "weights": rows}) + "\n"
    loaded = load_estimator_file(path)
    assert loaded == est and loaded.weights == est.weights
    # the distribution file, with its pair probabilities, byte for byte too
    path = tmp_path / "dist.json"
    save_distribution_file(dist, path)
    pairs = [{"A": list(pair.sample), "B": list(pair.target), "p": p} for pair, p in zip(dist.pairs, dist.probs)]
    assert path.read_text() == json.dumps({"n": dist.n, "pairs": pairs}) + "\n"
    assert load_distribution_file(path) == dist


def test_weights_view_is_rebuilt_on_each_read():
    # a cached view would keep m dict views alive on every estimator read once
    maps = ({0: 0.3, 1: 0.7}, {}, {2: 0.0})
    rows = [[[0, 0.3], [1, 0.7]], [], [[2, 0.0]]]
    for est in (SemilinearEstimator(3, maps), estimator_from_dict({"n": 3, "weights": rows})):
        stored = set(vars(est))
        first = est.weights
        assert first == maps and est.weights == maps
        assert est.weights is not first
        assert set(vars(est)) == stored


def test_estimator_file_reads_integer_values():
    est = estimator_from_dict({"n": 3, "weights": [[[0, 1], [2, 2**70]], []]})
    assert est == SemilinearEstimator(3, ({0: 1.0, 2: float(2**70)}, {}))


def test_dense_is_a_copy_and_the_stored_arrays_are_read_only(tmp_path):
    dist = make_dist(3, [([0, 1], [2]), ([2], [0])])
    est = estimator_from_dense(dist, np.array([[0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]))
    assert est.support is dist.sample_mask
    save_estimator_file(est, tmp_path / "est.json")
    built = (est, load_estimator_file(tmp_path / "est.json"), SemilinearEstimator(3, ({1: 2.0},)))
    for e in built:
        for arr in (e.support, e.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1
    arr = est.dense()
    arr[:] = 5.0
    np.testing.assert_array_equal(est.dense(), [[0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
    assert est.weights[0] == {0: 0.3, 1: 0.7}
    with pytest.raises(TypeError):
        est.weights[0][0] = 1.0


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
