"""The dual bound and the radius doubling that skips what it rules out.

g(X) = sum_i pi_i min over u on A_i of (u - b_i)^T X (u - b_i) is a lower
bound on <M(a), X> for every semilinear a and every PSD X: so on
n lambda_max(M(a)) when tr X = n, and on SDP_inf(M(a)) when X has unit
diagonal.  ``run_with_doubling`` pauses the run of each radius but the
last where its ball first binds, ascends the dual only then, and stops the
run once the regime's bound exceeds p, else lets it continue; it reuses a
rejected run whose ball never bound for every larger radius instead of
running it again.  Neither may change an output:
``reference_run_with_doubling`` below is the loop without either, in which
every radius runs, kept as the reference in both regimes.
"""

import math

import numpy as np
import pytest

from conftest import make_dist, random_dist
from wcmean.collectors import gen_importance, gen_selective, gen_snowball
from wcmean.core import (
    L2,
    LINF,
    SampleTargetDistribution,
    build_loss_matrix,
    estimator_from_dense,
)
from wcmean import optimizer
from wcmean.optimizer import (
    InfeasibleBallError,
    OgdConfig,
    _Dual,
    _run_single,
    ball_geometry,
    l2_dual_bound,
    radius_for,
    run_with_doubling,
    trace_summary,
)


def reference_run_with_doubling(dist, cfg):
    """The doubling loop without the dual skip or the reuse: every radius runs."""
    p = cfg.p_init if cfg.p_init is not None else 1.0 / dist.n
    cap = (
        cfg.p_doublings_max
        if cfg.p_doublings_max is not None
        else math.ceil(math.log2(dist.n)) + 2
    )
    best = None
    last_infeasible = None
    for attempt in range(cap + 1):
        try:
            a_dense, trace = _run_single(dist, cfg, p)
        except InfeasibleBallError as exc:
            last_infeasible = exc
            p *= 2.0
            continue
        if best is None or trace.best_value < best[1].best_value:
            best = (a_dense, trace, p)
        if trace.best_value <= p:
            return a_dense, trace, p
        p *= 2.0
    if best is None:
        raise last_infeasible
    return best


def reference_dual(dist, X):
    """g(X) pair by pair, each minimizer from np.linalg.pinv."""
    b = dist.target_rows
    total = 0.0
    for i, pair in enumerate(dist.pairs):
        A = list(pair.sample)
        u = np.zeros(dist.n)
        if A:
            u[A] = np.linalg.pinv(X[np.ix_(A, A)]) @ (X @ b[i])[A]
        r = u - b[i]
        total += dist.pair_weights[i] / dist.m * (r @ X @ r)
    return total


def random_trace_n(rng, n):
    """Random symmetric positive definite X with trace n."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.exponential(size=n) + 0.05
    X = (Q * (n * lam / lam.sum())) @ Q.T
    return (X + X.T) / 2


def weighted(dist, rng):
    probs = rng.random(dist.m) + 0.1
    return SampleTargetDistribution(dist.n, dist.pairs, tuple(probs / probs.sum()))


def bound_cases():
    rng = np.random.default_rng(90)
    cases = {
        "random": random_dist(rng, 7, 12),
        "empty-samples": random_dist(rng, 6, 15, allow_empty=True),
        "all-empty": make_dist(5, [([], [0, 1]), ([], [2, 3, 4])]),
        "single-pair": make_dist(6, [([1, 4], [0, 1, 2])]),
        "weighted": weighted(random_dist(rng, 8, 10), rng),
        "overlap": make_dist(6, [([0, 1, 2], [1, 2, 3]), ([2, 3], [2, 3]), ([4], [0, 4, 5])]),
        # a short sample holding column 0 among longer ones, and a long
        # one holding it among shorter ones: the rows a padded scatter
        # would overwrite at column 0
        "column-0": make_dist(
            7,
            [([0, 5], [1, 2]), ([1, 2, 3, 4], [0]), ([0, 2, 4, 6], [3]), ([3], [0, 6]), ([6], [5])],
        ),
        "importance": gen_importance(n=20, split=10, m=30, seed=4)[0],
    }
    return cases


@pytest.mark.parametrize("name", list(bound_cases()))
def test_dual_bound_matches_pinv_and_bounds_every_estimator(name):
    dist = bound_cases()[name]
    rng = np.random.default_rng(91)
    for _ in range(5):
        X = random_trace_n(rng, dist.n)
        g = l2_dual_bound(dist, X)
        ref = reference_dual(dist, X)
        assert abs(g - ref) <= 1e-10 * max(abs(ref), 1e-300), (g, ref)
        for scale in (0.0, 0.3, 3.0):
            arr = np.where(dist.sample_mask, scale * rng.standard_normal((dist.m, dist.n)), 0.0)
            M = build_loss_matrix(estimator_from_dense(dist, arr), dist).dense
            inner = float(np.sum(M * X))
            top = dist.n * np.linalg.eigvalsh(M)[-1]
            assert g <= inner * (1 + 1e-12) + 1e-15
            assert inner <= top * (1 + 1e-12) + 1e-15


def test_dual_bound_at_identity_is_the_infeasibility_threshold():
    rng = np.random.default_rng(92)
    for dist in (random_dist(rng, 6, 9, allow_empty=True), weighted(random_dist(rng, 5, 7), rng)):
        beta = ball_geometry(dist, 1.0).beta
        assert l2_dual_bound(dist, np.eye(dist.n)) == pytest.approx(beta / dist.m, rel=1e-12)
        for regime in (L2, LINF):
            assert _Dual(dist, regime).value == pytest.approx(beta / dist.m, rel=1e-12)


def test_dual_ascent_stays_below_every_fit():
    # the ascent's best value is a lower bound on every iterate's f_t
    dist = gen_importance(n=30, split=15, m=60, seed=2)[0]
    dual = _Dual(dist, L2)
    start = dual.value
    for k in range(6):
        dual.raise_above(2.0**k / dist.n)
    assert dual.steps > 0 and dual.value > start
    _, trace, _ = reference_run_with_doubling(dist, OgdConfig(regime=L2, t_max=30, seed=1))
    assert dual.value <= float(np.min(trace.f_t))


def test_dual_rejects_wrong_shape():
    dist = make_dist(3, [([0], [1, 2])])
    with pytest.raises(ValueError):
        l2_dual_bound(dist, np.eye(4))


def skip_cases():
    rng = np.random.default_rng(93)
    snowball = gen_snowball(n=30, k=12, m=60, seed=1)[0]
    return {
        "importance": (gen_importance(n=50, split=25, m=150, seed=0)[0], 60),
        "snowball": (snowball, 40),
        "selective": (gen_selective(), 40),
        "weighted": (weighted(gen_importance(n=24, split=12, m=40, seed=5)[0], rng), 40),
        "empty-samples": (random_dist(rng, 8, 12, allow_empty=True), 30),
        "all-empty": (make_dist(4, [([], [0, 1]), ([], [2, 3]), ([], [1])]), 10),
        "single-pair": (make_dist(6, [([0, 2, 3], [1, 2, 5])]), 30),
        # its l2 fit rejects a run whose ball never bound, as selective's
        # linf fit does
        "small-importance": (gen_importance(n=24, split=12, m=40, seed=0)[0], 40),
    }


def assert_same_fit(dist, cfg):
    ref_a, ref_trace, ref_p = reference_run_with_doubling(dist, cfg)
    est, trace, p = run_with_doubling(dist, cfg)
    np.testing.assert_array_equal(est.dense(), ref_a)
    assert trace.best_value == ref_trace.best_value
    assert trace.best_t == ref_trace.best_t
    assert p == ref_p
    assert trace.p == ref_trace.p
    np.testing.assert_array_equal(trace.f_t, ref_trace.f_t)
    return trace


@pytest.mark.parametrize(
    "name, regime",
    [(name, L2) for name in skip_cases()] + [(name, LINF) for name in skip_cases()],
)
def test_skipping_changes_no_output(name, regime):
    dist, t_max = skip_cases()[name]
    trace = assert_same_fit(dist, OgdConfig(regime=regime, t_max=t_max, seed=2))
    outcomes = [rec.outcome for rec in trace.attempts]
    assert outcomes[-1] == "accepted"
    # a radius is reported infeasible exactly when its ball is empty, and
    # ruled out only by a bound above it
    beta = ball_geometry(dist, 0.0).beta
    for rec in trace.attempts:
        empty = radius_for(regime, dist.m, rec.p) ** 2 - beta < -1e-9
        assert (rec.outcome == "infeasible") == empty
        if rec.outcome == "ruled-out":
            assert rec.dual_bound > rec.p
    if name == "selective":
        assert "infeasible" in outcomes
    if regime == L2:
        assert trace.dual_bound <= trace.best_value
    # the ascent takes up to _DUAL_STEPS steps per attempt in either regime,
    # and only at a radius whose run bound: one ruled out after part of its
    # run, or one whose run then continued to t_max.  Each attempt makes
    # at most one run.
    assert trace.dual_steps == sum(rec.dual_steps for rec in trace.attempts)
    for rec in trace.attempts:
        assert rec.dual_steps <= optimizer._DUAL_STEPS
        assert rec.iterations <= t_max
        if rec.dual_steps:
            assert rec.iterations >= 1
            assert rec.outcome == "ruled-out" or rec.iterations == t_max
        if rec.outcome == "ruled-out":
            # before any run, by the bound of a smaller radius, or after
            # part of a run, by the ascent at p
            assert rec.iterations > 0 or rec.dual_steps == 0
        if rec.reused or rec.outcome == "infeasible":
            assert rec.iterations == rec.dual_steps == 0
    assert all(rec.dual_bound is not None for rec in trace.attempts)
    assert trace.dual_bound >= trace.attempts[-1].dual_bound
    # a radius but the last runs only when the bound it met at its start
    # did not already rule it out
    for prev, rec in zip(trace.attempts, trace.attempts[1:-1]):
        if rec.iterations:
            assert prev.dual_bound <= rec.p * (1 + optimizer._DUAL_MARGIN)
    if name == "importance":
        # not vacuous: the dual skips radii on this process, in both regimes
        assert outcomes.count("ruled-out") >= 1 and trace.dual_steps >= 1
    if (name, regime) in (("selective", LINF), ("small-importance", L2)):
        # not vacuous: a rejected run is reused for a larger radius
        assert trace.attempts[-1].reused and trace.attempts[-2].outcome == "rejected"
    # a reused attempt follows a rejected run, as does every later attempt
    reused = [rec.reused for rec in trace.attempts]
    if any(reused):
        first = reused.index(True)
        assert all(reused[first:]) and trace.attempts[first - 1].outcome == "rejected"
        assert trace.attempts[first - 1].best_value == trace.best_value


@pytest.mark.parametrize("name, regime", [("small-importance", L2), ("selective", LINF)])
def test_reused_run_is_the_run_at_twice_the_radius(name, regime):
    # a run whose ball never bound is, bit for bit, the run at 2p: p enters
    # only through the slack of the ball, and the rng seed not at all
    dist, t_max = skip_cases()[name]
    cfg = OgdConfig(regime=regime, t_max=t_max, seed=2)
    trace = run_with_doubling(dist, cfg)[1]
    rejected = next(rec for rec in trace.attempts if rec.outcome == "rejected")
    # its run never bound, so no ascent was taken at it
    assert rejected.dual_steps == 0 and rejected.iterations == t_max
    p = rejected.p
    a, first = _run_single(dist, cfg, p)
    assert np.all(first.lam == 1.0) and first.best_value > p
    a2, second = _run_single(dist, cfg, 2.0 * p)
    np.testing.assert_array_equal(a, a2)
    np.testing.assert_array_equal(first.f_t, second.f_t)
    np.testing.assert_array_equal(second.lam, 1.0)
    assert first.best_t == second.best_t and second.p == 2.0 * p


@pytest.mark.parametrize(
    "regime, p_init, ran",
    [
        # 0.2 binds and is ruled out; 0.4 binds, is not ruled out and
        # continues; 0.8 never binds and is accepted
        (L2, 0.05, [(0.2, True, True), (0.4, True, False), (0.8, True, False)]),
        # 0.15 binds and is ruled out; 0.3 never binds, so the last radius
        # reuses it
        (LINF, 0.15, [(0.15, True, True), (0.3, True, False)]),
    ],
)
def test_a_run_whose_ball_binds_continues(monkeypatch, regime, p_init, ran):
    # the runs made, as (p, given the doubling's _Dual, ruled out): every
    # radius but the last runs with the dual, and a run whose ball binds
    # either stops there, ruled out, or continues: one run per radius
    dist = random_dist(np.random.default_rng(21), 6, 5)
    cfg = OgdConfig(regime=regime, eps=0.05, t_max=4, seed=3, p_init=p_init)
    calls, runs = [], {}

    def recording(dist, cfg, p, dual=None):
        a, trace = _run_single(dist, cfg, p, dual)
        calls.append((p, isinstance(dual, _Dual), a is None))
        runs[p] = a, trace
        return a, trace

    monkeypatch.setattr(optimizer, "_run_single", recording)
    trace = run_with_doubling(dist, cfg)[1]
    monkeypatch.undo()
    assert calls == ran
    records = {rec.p: rec for rec in trace.attempts}
    for p, _, ruled_out in ran:
        rec, (a, run) = records[p], runs[p]
        bound = bool(np.any(run.lam < 1.0))
        if ruled_out:
            assert rec.outcome == "ruled-out" and rec.iterations == run.t.size < cfg.t_max
            assert bound and run.lam[-1] < 1.0
        elif bound:
            # the ascent did not rule p out, and the run that continued is
            # _run_single's, bit for bit
            assert rec.outcome == "rejected" and rec.dual_steps >= 1
            assert rec.iterations == cfg.t_max
            ref_a, ref = _run_single(dist, cfg, p)
            np.testing.assert_array_equal(a, ref_a)
            np.testing.assert_array_equal(run.f_t, ref.f_t)
            np.testing.assert_array_equal(run.lam, ref.lam)
            assert run.best_t == ref.best_t and rec.best_value == ref.best_value
        else:
            assert rec.dual_steps == 0 and rec.iterations == cfg.t_max
    # not vacuous: the l2 fit has a run that binds and continues
    assert any(rec.outcome == "rejected" and rec.dual_steps for rec in trace.attempts) == (
        regime == L2
    )
    assert [rec.reused for rec in trace.attempts][-1] == (regime == LINF)
    assert_same_fit(dist, cfg)


def test_reused_runs_exhaust_the_cap_like_the_reference():
    # rejected at every radius from 0.16 on, each after the first reusing
    # its run: the fit is that first run, at its own p
    dist = random_dist(np.random.default_rng(21), 6, 5)
    cfg = OgdConfig(regime=LINF, eps=0.05, t_max=4, seed=3, p_init=0.01)
    trace = assert_same_fit(dist, cfg)
    assert [rec.outcome for rec in trace.attempts][-2:] == ["rejected", "rejected"]
    assert trace.attempts[-1].reused and trace.p == 0.16
    assert "doubling-cap-exhausted" in trace.notes


def test_attempt_records_follow_the_doubling(monkeypatch):
    dist = gen_importance(n=50, split=25, m=150, seed=0)[0]
    cfg = OgdConfig(regime=L2, t_max=20, seed=0)
    _, trace, p_final = run_with_doubling(dist, cfg)
    ps = [rec.p for rec in trace.attempts]
    assert ps == [ps[0] * 2.0**k for k in range(len(ps))] and ps[-1] == p_final
    bounds = [rec.dual_bound for rec in trace.attempts]
    assert bounds == sorted(bounds) and trace.dual_bound >= bounds[-1]
    for rec in trace.attempts:
        if rec.outcome == "ruled-out":
            assert rec.best_value is None and rec.dual_bound > rec.p
        else:
            assert rec.dual_bound <= rec.best_value
    summary = trace_summary(trace, p_final)
    assert summary["dual_bound"] == trace.dual_bound
    assert [a["outcome"] for a in summary["attempts"]] == [rec.outcome for rec in trace.attempts]
    assert set(summary["attempts"][0]) == {
        "p", "outcome", "best_value", "dual_bound", "reused", "dual_steps", "iterations"
    }
    assert sum(a["dual_steps"] for a in summary["attempts"]) == summary["dual_steps"]
    # each radius runs at most once, none after a reused one, and each
    # record counts its one run's iterations, at most t_max
    calls = []

    def recording(dist, cfg, p, dual=None):
        a, run = _run_single(dist, cfg, p, dual)
        calls.append((p, run.t.size))
        return a, run

    monkeypatch.setattr(optimizer, "_run_single", recording)
    run_with_doubling(dist, cfg)
    monkeypatch.undo()
    made = [p for p, _ in calls]
    assert made and len(set(made)) == len(made) and set(made) <= set(ps)
    reused = [rec.p for rec in trace.attempts if rec.reused]
    assert all(p < min(reused, default=math.inf) for p in made)
    for rec in trace.attempts:
        assert rec.iterations == dict(calls).get(rec.p, 0) <= cfg.t_max
    # deterministic, the records included
    _, again, _ = run_with_doubling(dist, cfg)
    assert again.attempts == trace.attempts and again.notes == trace.notes


def test_summary_reports_the_dual_in_both_regimes():
    # no regret bound or regret note in either regime; the ascent steps and
    # the dual bound always, whatever t_max
    dist = random_dist(np.random.default_rng(94), 5, 8)
    beta = ball_geometry(dist, 0.0).beta
    for regime, t_max in ((L2, 5), (LINF, 20), (LINF, 19)):
        cfg = OgdConfig(regime=regime, t_max=t_max, p_doublings_max=0)
        trace = run_with_doubling(dist, cfg)[1]
        summary = trace_summary(trace)
        assert not any("regret" in note for note in trace.notes)
        assert not {"regret_bound", "theoretical_t"} & set(summary)
        # one attempt, which is the last: it always runs, with no ascent,
        # so the bound is g(I) = beta / m
        assert summary["dual_steps"] == trace.dual_steps == 0
        assert summary["dual_bound"] == trace.dual_bound == trace.attempts[0].dual_bound
        assert trace.dual_bound == pytest.approx(beta / dist.m, rel=1e-12)


def test_cap_exhausted_runs_the_last_radius():
    """With the cap exhausted, ruled-out radii never completed a run, so the
    fit returned is the best of the runs made; the last radius always runs.  Here every
    radius but the last is ruled out, and the last is rejected: the result is
    the reference's last run, which is also the reference's best."""
    dist = gen_importance(n=50, split=25, m=150, seed=0)[0]
    cfg = OgdConfig(regime=L2, t_max=20, seed=4, p_init=0.015, p_doublings_max=2)
    est, trace, p = run_with_doubling(dist, cfg)
    assert [rec.outcome for rec in trace.attempts] == ["ruled-out", "ruled-out", "rejected"]
    assert p == 0.06 and "doubling-cap-exhausted" in trace.notes
    last_a, last_trace = _run_single(dist, cfg, 0.06)
    np.testing.assert_array_equal(est.dense(), last_a)
    np.testing.assert_array_equal(trace.f_t, last_trace.f_t)
    ref_a, ref_trace, ref_p = reference_run_with_doubling(dist, cfg)
    assert ref_p == p
    np.testing.assert_array_equal(ref_a, last_a)


def test_single_attempt_is_never_skipped():
    # p_doublings_max = 0: the one radius is also the last, so it runs
    dist = gen_importance(n=50, split=25, m=150, seed=0)[0]
    cfg = OgdConfig(regime=L2, t_max=10, p_doublings_max=0)
    _, trace, _ = run_with_doubling(dist, cfg)
    assert [rec.outcome for rec in trace.attempts] == ["rejected"]


@pytest.mark.parametrize("regime", [L2, LINF])
def test_all_infeasible_radii_still_raise(regime):
    dist = gen_selective()
    cfg = OgdConfig(regime=regime, t_max=5, p_init=1e-4, p_doublings_max=2)
    with pytest.raises(InfeasibleBallError):
        reference_run_with_doubling(dist, cfg)
    with pytest.raises(InfeasibleBallError):
        run_with_doubling(dist, cfg)
