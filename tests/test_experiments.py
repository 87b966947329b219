"""run_experiment: layouts, determinism, CSV output, selective windows."""

import numpy as np
import pytest

from conftest import make_dist
from wcmean.baselines import GroupStructure
from wcmean.core import estimator_from_dense, fixed_data_error
from wcmean.experiments import (
    EXPERIMENTS,
    average_results,
    run_experiment,
    spatial_values,
    synthetic_values,
    worst_case_cell,
    write_experiment_csv,
)

SMALL = dict(m=60, eps=0.05, t_max=8)


@pytest.fixture(scope="module")
def importance_result():
    return run_experiment("importance", seed=0, **SMALL)


def test_synthetic_values():
    np.testing.assert_array_equal(synthetic_values("constant", 3), [1, 1, 1])
    np.testing.assert_array_equal(synthetic_values("intergroup", 4, 1), [1, -1, -1, -1])
    np.testing.assert_array_equal(synthetic_values("intragroup", 4), [1, -1, 1, -1])
    with pytest.raises(ValueError):
        synthetic_values("spatial", 4)


def test_intergroup_takes_the_first_group():
    gs = GroupStructure(groups=((1, 3), (0, 2, 4)), inclusion_prob=np.full(5, 0.5))
    np.testing.assert_array_equal(synthetic_values("intergroup", 5, groups=gs), [-1, 1, -1, 1, -1])
    np.testing.assert_array_equal(synthetic_values("intergroup", 5), [1, 1, -1, -1, -1])
    # the other rows ignore the groups
    np.testing.assert_array_equal(synthetic_values("constant", 5, groups=gs), np.ones(5))
    with pytest.raises(ValueError, match="population size does not match"):
        synthetic_values("intergroup", 4, groups=gs)


def test_spatial_values_sum_coordinates():
    pts = np.array([[0.25, 0.5], [1.0, 0.0]])
    np.testing.assert_allclose(spatial_values(pts), [0.75, 1.0])
    with pytest.raises(ValueError):
        spatial_values(np.zeros((3, 3)))


def test_experiment_names():
    assert set(EXPERIMENTS) == {"importance", "snowball", "selective"}
    with pytest.raises(ValueError):
        run_experiment("census", **SMALL)


def test_importance_layout_and_finiteness(importance_result):
    r = importance_result
    assert r.rows == ("constant", "intergroup", "intragroup", "worst_linf", "worst_l2")
    assert r.columns == ("reweighting", "subgroup", "ogd_linf", "ogd_l2")
    for row in r.rows:
        for col in r.columns:
            assert np.isfinite(r.cells[row][col]), (row, col)
    assert r.provenance["generator"]["m"] == SMALL["m"]
    assert "ogd_l2" in r.provenance["ogd"]


def test_snowball_layout():
    r = run_experiment("snowball", seed=0, **SMALL)
    assert r.rows == ("spatial", "worst_linf", "worst_l2")
    assert r.columns == ("sample_mean", "ogd_linf", "ogd_l2")
    assert r.provenance["generator"] == {
        "n": 50, "k": 25, "num_neighbors": 5, "recruit": 2, "m": SMALL["m"], "seed": 0,
    }
    assert "points" not in r.provenance


def test_selective_window_conventions_change_baseline():
    disjoint = run_experiment("selective", seed=0, **SMALL)
    overlap = run_experiment("selective", seed=0, overlap=True, **SMALL)
    sp_d = disjoint.estimators["selective_prediction"]
    sp_o = overlap.estimators["selective_prediction"]
    # the window counts unobserved target indices, so both conventions
    # give the same w (the overlapping target is one longer but shares
    # the newest observed index): the weights agree and only the target
    # sets move
    assert sp_d.weights == sp_o.weights
    d_cells = disjoint.cells["worst_l2"]["selective_prediction"]
    o_cells = overlap.cells["worst_l2"]["selective_prediction"]
    assert d_cells != o_cells
    d0 = disjoint.provenance["generator"]["window_convention"]
    o0 = overlap.provenance["generator"]["window_convention"]
    assert (d0, o0) == ("disjoint", "overlap")


def test_selective_overlap_window_is_target_minus_one():
    from wcmean.collectors import gen_selective

    overlap = run_experiment("selective", seed=0, overlap=True, **SMALL)
    sp = overlap.estimators["selective_prediction"]
    dist = gen_selective(overlap=True)
    assert sp.m == dist.m
    dense = sp.dense()
    for i, pair in enumerate(dist.pairs):
        t = len(pair.sample)
        w = len(pair.target) - 1
        assert w <= t  # prefixes start at t = w, so the window always fits
        assert dist.probs[i] == pytest.approx(1.0 / (5 * (dist.n - 2 * w + 1)))
        k = min(w, t)
        expect = np.zeros(dist.n)
        expect[t - k : t] = 1.0 / k
        assert dense[i] == pytest.approx(expect), i


def test_sdp_sweep_cap_is_noted_and_keeps_the_carried_value(capped_sdp):
    r = run_experiment("selective", seed=0, **SMALL)
    assert r.provenance["ogd"]["ogd_linf"]["notes"].count("sdp-sweep-cap-hit") == 1
    assert "sdp-sweep-cap-hit" not in r.provenance["ogd"]["ogd_l2"]["notes"]
    # the worst_linf row is filled column by column, one solve per cell
    assert [r.cells["worst_linf"][col] for col in r.columns] == capped_sdp
    notes = r.provenance["convergence_notes"]
    assert [note.split(":")[0] for note in notes] == [f"worst_linf/{col}" for col in r.columns]


def test_average_results_means_cells(importance_result):
    other = run_experiment("importance", seed=1, **SMALL)
    avg = average_results([importance_result, other])
    for row in avg.rows:
        for col in avg.columns:
            expect = 0.5 * (
                importance_result.cells[row][col] + other.cells[row][col]
            )
            assert avg.cells[row][col] == pytest.approx(expect)
    assert avg.provenance["seeds"] == [0, 1]


def test_average_results_rejects_empty_and_mismatched(importance_result):
    with pytest.raises(ValueError):
        average_results([])
    snow = run_experiment("snowball", seed=0, **SMALL)
    with pytest.raises(ValueError):
        average_results([importance_result, snow])


def test_write_experiment_csv(tmp_path, importance_result):
    path = tmp_path / "table.csv"
    write_experiment_csv(importance_result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "data_values"
    assert len(lines) == 1 + len(importance_result.rows)
    first = lines[1].split(",")
    assert first[0] == "constant"
    assert float(first[1]) == pytest.approx(
        importance_result.cells["constant"]["reweighting"], abs=1e-6
    )


# ── worst-case cells on rank-one loss matrices ───────────────────────
#
# When every pair has the same residual v = a - b, M = v v^T.  Then the
# l2 cell is n ||v||^2, and the linf cell is ||v||_1^2: a rank-one SDP
# over unit diagonals is maximised by the sign vector of v.


def rank_one_cases():
    single = make_dist(6, [([1, 4], [0, 1, 2])])
    weights = np.zeros((1, 6))
    weights[0, [1, 4]] = [0.7, -0.4]
    # all samples empty, all targets {0, 2, 3}: a = 0 and v = -b
    empty = make_dist(5, [([], [0, 2, 3])] * 4)
    return {
        "single-pair": (single, weights),
        "all-empty": (empty, np.zeros((4, 5))),
    }


@pytest.mark.parametrize("name", ["single-pair", "all-empty"])
@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_worst_case_cells_match_rank_one_closed_forms(name, eps):
    dist, weights = rank_one_cases()[name]
    est = estimator_from_dense(dist, weights)
    v = weights[0] - dist.target_rows[0]
    l2 = dist.n * float(v @ v)
    linf = float(np.abs(v).sum()) ** 2

    assert worst_case_cell(est, dist, "worst_l2", eps, np.random.default_rng(0)) == pytest.approx(l2, rel=1e-9)
    # the SDP solver promises a value within a factor 1 + eps/10 below the optimum
    got = worst_case_cell(est, dist, "worst_linf", eps, np.random.default_rng(0))
    assert linf / (1 + eps / 10) <= got <= linf * (1 + 1e-9)
    # the adversaries attaining both values
    signs = np.sign(v)
    assert fixed_data_error(est, dist, signs) == pytest.approx(linf, rel=1e-12)
    assert fixed_data_error(est, dist, np.sqrt(dist.n) * v / np.linalg.norm(v)) == pytest.approx(l2, rel=1e-12)


def test_all_empty_closed_forms_are_one_and_n_over_target_size():
    dist, weights = rank_one_cases()["all-empty"]
    est = estimator_from_dense(dist, weights)
    rng = np.random.default_rng(3)
    # ||b||_1 = 1 and ||b||^2 = 1/|B| for the target-averaging vector b
    assert worst_case_cell(est, dist, "worst_l2", 0.01, rng) == pytest.approx(5 / 3, rel=1e-9)
    assert 1 / (1 + 0.01 / 10) <= worst_case_cell(est, dist, "worst_linf", 0.01, rng) <= 1 + 1e-9
