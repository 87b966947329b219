"""Tests of the benchmark's own checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

Each check must pass the program's exact output and flag the same output
moved past its tolerance.  The SDP bracket is held against exhaustive
enumeration of the hypercube.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from wcmean import collectors, core, lowerbound, optimizer, subproblems  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

EPS = workloads.EPS


def cube_value(M: np.ndarray) -> float:
    """max x^T M x over x in {-1, 1}^n by enumeration (small n only)."""
    n = M.shape[0]
    codes = np.arange(1 << (n - 1))  # x_0 = +1 by the symmetry x -> -x
    bits = (codes[:, None] >> np.arange(n - 1)) & 1
    X = np.hstack([np.ones((codes.size, 1)), 1.0 - 2.0 * bits])
    return float(np.max(np.einsum("ij,jk,ik->i", X, M, X)))


def _small(name: str) -> workloads.Workload:
    """A workload's table at a size the tests can afford."""
    full = workloads.WORKLOADS[name]
    make = {
        "importance": workloads._importance(10, 60),
        "snowball": lambda seed: _snowball_small(seed),
        "selective": full.make,
    }[name]
    return dataclasses.replace(full, make=make, t_max={r: 15 for r in full.t_max})


def _snowball_small(seed: int) -> workloads.Instance:
    dist, points = collectors.gen_snowball(n=12, k=5, num_neighbors=3, m=40, seed=seed)
    return workloads.Instance(dist, points=points)


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("json")
    return {name: workloads.run_round(_small(name), 3, scratch) for name in ("importance", "snowball", "selective")}


@pytest.mark.parametrize("name", ["importance", "snowball", "selective"])
def test_program_output_passes(rounds, name):
    ops, refs = workloads.verify(_small(name), rounds[name], accuracy=False)
    assert [(n, r) for n, r in ops if r is not None] == []
    assert {n.split("/")[0] for n, _ in ops} >= {"worst_l2", "worst_linf", "fit", "dominance", "json"}
    for col, ref in refs.items():
        assert ref["linf"][0] <= ref["linf"][1]


def test_lower_bound_output_passes(rounds):
    ops, _ = workloads.verify(_small("selective"), rounds["selective"], accuracy=False)
    named = dict(ops)
    for op in ("certificate", "adversary", "adversary_cell"):
        assert named[op] is None


def test_accuracy_checks_pass_tight_solves():
    """Solved to eps = 1e-6, the program's cells meet the eps = 0.01 promise."""
    dist, gs = collectors.gen_importance(n=8, split=4, m=50, seed=1)
    rng = np.random.default_rng(0)
    for name in ("reweighting", "subgroup"):
        est = workloads.experiments.baseline_estimator(name, dist, gs)
        M = checks.loss_gram(est, dist)
        l2 = subproblems.sdp2_value(est, dist, 1e-6, rng)[0]
        linf = subproblems.sdp_inf_solve(core.build_loss_matrix(est, dist), 1e-6, rng).objective
        assert checks.check_l2_accuracy(l2, checks.l2_value(M), EPS) is None
        assert checks.check_l2_upper(l2, checks.l2_value(M)) is None
        bracket = checks.sdp_bracket(M)
        assert checks.check_linf_accuracy(linf, bracket, EPS) is None
        assert checks.check_linf_upper(linf, bracket) is None


def test_worst_case_cells_flagged_past_tolerance(rounds):
    out = rounds["importance"]
    M = checks.loss_gram(out.estimators["ogd_l2"], out.instance.dist)
    l2 = checks.l2_value(M)
    bracket = checks.sdp_bracket(M)
    assert checks.check_l2_accuracy(l2 * 0.99, l2, EPS) is not None
    assert checks.check_l2_accuracy(l2 * 0.9995, l2, EPS) is None
    assert checks.check_l2_upper(l2 * 1.01, l2) is not None
    assert checks.check_linf_accuracy(bracket[0] * 0.99, bracket, EPS) is not None
    assert checks.check_linf_accuracy(bracket[0] * 0.9995, bracket, EPS) is None
    assert checks.check_linf_upper(bracket[1] * 1.01, bracket) is not None


def test_fixed_cell_flagged(rounds):
    out = rounds["importance"]
    x = workloads.data_vector("intergroup", out.instance)
    cell = out.cells["intergroup"]["ogd_l2"]
    est = out.estimators["ogd_l2"]
    assert checks.check_fixed_cell(cell, est, out.instance.dist, x) is None
    assert checks.check_fixed_cell(cell * (1 + 1e-6), est, out.instance.dist, x) is not None


def _moved(est, dist, factor):
    """The estimator with a_i - proj b_i scaled by ``factor``."""
    arr = checks.dense_weights(est)
    mask = dist.sample_mask
    center = np.where(mask, checks.target_means(dist), 0.0)
    return core.estimator_from_dense(dist, center + factor * (arr - center))


def test_fit_flagged_outside_its_ball(rounds):
    out = rounds["importance"]
    dist = out.instance.dist
    for col, (trace, p) in out.fits.items():
        regime = workloads.OGD_COLUMNS[col]
        est = out.estimators[col]
        assert checks.check_fit(est, dist, regime, p) is None
        # the smallest factor that leaves the ball by 1%
        r2 = optimizer.radius_for(regime, dist.m, p) ** 2
        geom = optimizer.ball_geometry(dist, math.sqrt(r2))
        arr = checks.dense_weights(est)
        inside = float(np.sum(geom.weights[:, None] * (arr - geom.center) ** 2))
        factor = math.sqrt((1.01 * r2 - geom.beta) / inside)
        assert checks.check_fit(_moved(est, dist, factor), dist, regime, p) is not None


def test_fit_flagged_off_its_support(rounds):
    out = rounds["importance"]
    dist = out.instance.dist
    est = out.estimators["ogd_l2"]
    i = next(i for i, pair in enumerate(dist.pairs) if len(pair.sample) < dist.n)
    j = next(j for j in range(dist.n) if j not in dist.pairs[i].sample)
    weights = list(est.weights)
    weights[i] = {**weights[i], j: 1e-3}
    bad = core.SemilinearEstimator(est.n, tuple(weights))
    assert checks.check_fit(bad, dist, core.L2, out.fits["ogd_l2"][1]) is not None


def test_fit_value_against_p():
    assert checks.check_fit_value(0.1, 0.1, EPS, ()) is None
    assert checks.check_fit_value(0.1 * (1 + EPS / 10) * 1.0001, 0.1, EPS, ()) is not None
    assert checks.check_fit_value(0.2, 0.1, EPS, ("doubling-cap-exhausted",)) is None


def test_dominance_and_round_trip_flagged(rounds):
    assert checks.check_dominance(1.0, {"b": 1.0}, EPS) is None
    assert checks.check_dominance(1.02, {"a": 2.0, "b": 1.0}, EPS) is not None
    est = rounds["snowball"].estimators["ogd_l2"]
    weights = list(est.weights)
    key = next(iter(weights[0]))
    weights[0] = {**weights[0], key: weights[0][key] + 1e-12}
    assert checks.check_round_trip(est, core.SemilinearEstimator(est.n, tuple(weights))) is not None
    assert checks.check_round_trip(est, rounds["snowball"].reloaded["ogd_l2"]) is None


def test_certificate_and_adversary_flagged(rounds):
    out = rounds["selective"]
    lb = out.instance.lb_dist
    cert = out.certificate
    x, achieved, base = out.adversary
    assert checks.check_certificate(dataclasses.replace(cert, alpha=cert.alpha * 1.001), lb) is not None
    assert checks.check_certificate(dataclasses.replace(cert, side1_count=cert.side1_count + 1), lb) is not None
    # a subset one flip away from the optimum is not a maximum
    j = cert.subset[0] if cert.subset else 0
    worse = lowerbound.check_non_expanding(lb, set(cert.subset) ^ {j})
    assert worse.alpha < cert.alpha
    assert checks.check_certificate(worse, lb) is not None
    assert checks.check_adversary(x.values * 1.5, achieved, cert.alpha, base, lb) is not None
    assert checks.check_adversary(x.values, achieved * 1.001, cert.alpha, base, lb) is not None
    assert checks.check_adversary(x.values, achieved, 8 * achieved, base, lb) is not None


@pytest.mark.parametrize("seed", range(4))
def test_sdp_bracket_within_hypercube_sandwich(seed):
    """cube <= SDP <= (pi/2) cube for PSD M (Nesterov's pi/2 bound), and the
    bracket [L, U] holds the SDP value to within its 1e-7 gap."""
    rng = np.random.default_rng(seed)
    n = 10 + seed % 3
    F = rng.standard_normal((3 + seed, n))
    M = F.T @ F
    cube = cube_value(M)
    lower, upper = checks.sdp_bracket(M)
    assert cube * (1 - 1e-6) <= lower <= upper <= (math.pi / 2) * cube
    assert cube <= upper * (1 + 1e-12)
    assert upper - lower <= 1e-6 * upper


def test_sdp_bracket_on_a_loss_matrix_and_rank_one():
    dist = collectors.gen_selective(n=12, windows=(1, 2, 4))
    est = workloads.experiments.baseline_estimator("selective_prediction", dist)
    M = checks.loss_gram(est, dist)
    cube = cube_value(M)
    lower, upper = checks.sdp_bracket(M)
    assert cube * (1 - 1e-6) <= lower <= upper <= (math.pi / 2) * cube
    # rank one: the SDP value is (sum |v_j|)^2, reached by the cube
    v = np.array([0.5, -1.0, 2.0, 0.25, -0.75, 1.5])
    lower, upper = checks.sdp_bracket(np.outer(v, v))
    assert math.isclose(lower, np.sum(np.abs(v)) ** 2, rel_tol=1e-9)
    assert math.isclose(upper, cube_value(np.outer(v, v)), rel_tol=1e-6)


def test_cube_value_matches_loop():
    rng = np.random.default_rng(7)
    F = rng.standard_normal((4, 6))
    M = F.T @ F
    best = max(
        float(x @ M @ x)
        for code in range(64)
        for x in [np.array([1.0 if code >> j & 1 else -1.0 for j in range(6)])]
    )
    assert math.isclose(cube_value(M), best, rel_tol=1e-12)


def test_run_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, a run fails with no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selective", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
