"""run_experiment: layouts, determinism, CSV output, selective windows."""

import numpy as np
import pytest

from wcmean.experiments import (
    EXPERIMENTS,
    average_results,
    run_experiment,
    spatial_values,
    synthetic_values,
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
    for i, pair in enumerate(dist.pairs):
        t = len(pair.sample)
        w = len(pair.target) - 1
        assert w <= t  # prefixes start at t = w, so the window always fits
        assert dist.probs[i] == pytest.approx(1.0 / (5 * (dist.n - 2 * w + 1)))
        k = min(w, t)
        expect = {j: pytest.approx(1.0 / k) for j in range(t - k, t)}
        assert sp.weights[i] == expect, i


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
