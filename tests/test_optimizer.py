"""OGD machinery: geometry, projection, gradients, runs, doubling."""

import math

import numpy as np
import pytest

from conftest import make_dist, random_dist
from wcmean.core import (
    L2,
    LINF,
    SampleTargetDistribution,
    build_loss_matrix,
    estimator_from_dense,
)
from wcmean.optimizer import (
    InfeasibleBallError,
    OgdConfig,
    _run_single,
    ball_geometry,
    loss_gradient,
    loss_value,
    ogd_step,
    project_to_ball,
    radius_for,
    run_with_doubling,
    trace_summary,
    uniform_init,
    write_trace_csv,
)
from wcmean.subproblems import sdp_inf_solve, top_eigen

TOL = 1e-9
FD_TOL = 1e-5
PROJ_TOL = 1e-6


def random_estimator(rng, dist, scale=1.0):
    arr = np.where(dist.sample_mask, scale * rng.standard_normal((dist.m, dist.n)), 0.0)
    return estimator_from_dense(dist, arr)


# ── geometry ─────────────────────────────────────────────────────────


def test_radius_formulas():
    assert abs(radius_for(LINF, 8, 0.5) - math.sqrt(math.pi * 8 * 0.5 / 2)) < TOL
    assert abs(radius_for(L2, 8, 0.5) - math.sqrt(8 * 0.5)) < TOL
    with pytest.raises(ValueError):
        radius_for("other", 8, 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps": 0.0},
        {"eps": math.nan},
        {"eps": math.inf},
        {"p_init": 0.0},
        {"p_init": math.nan},
        {"p_init": math.inf},
        # an int beyond float range raised OverflowError
        {"eps": 10**400},
        {"p_init": 10**400},
    ],
)
def test_config_rejects_bad_eps_and_p_init(kwargs):
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be positive and finite"):
        OgdConfig(regime=LINF, **kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_max", 2.5),
        ("t_max", True),
        ("t_max", "10"),
        ("seed", 1.5),
        ("seed", False),
        ("p_doublings_max", 1.5),
        ("p_doublings_max", True),
        ("t_max", np.float64(5.0)),
        ("seed", np.bool_(False)),
    ],
)
def test_config_rejects_non_integer_counts(field, value):
    # each would otherwise fail later, inside numpy or range, with a TypeError
    with pytest.raises(ValueError, match=field):
        OgdConfig(regime=L2, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("eps", True),
        ("eps", "0.1"),
        ("eps", None),
        ("p_init", True),
        ("p_init", "0.1"),
    ],
)
def test_config_rejects_non_real_eps_and_p_init(field, value):
    # a bool would otherwise run as 0 or 1, a string raise a TypeError
    with pytest.raises(ValueError, match=field):
        OgdConfig(regime=L2, **{field: value})


def test_config_accepts_int_and_numpy_reals():
    # each is stored as the Python int or float
    for field, value, stored in [
        ("eps", 1, 1.0),
        ("p_init", np.float64(0.05), 0.05),
        ("eps", np.float32(0.25), 0.25),
        ("p_init", np.int64(1), 1.0),
        ("t_max", np.int64(5), 5),
        ("seed", np.uint8(3), 3),
        ("p_doublings_max", np.int32(2), 2),
    ]:
        got = getattr(OgdConfig(regime=L2, **{field: value}), field)
        assert got == stored and type(got) is type(stored), (field, value)


def test_ball_geometry_beta():
    # A = {0}, B = {0,1}: b = (.5,.5), off-subspace part (0,.5), beta = .25
    dist = make_dist(2, [([0], [0, 1])])
    geom = ball_geometry(dist, 1.0)
    assert abs(geom.beta - 0.25) < TOL
    np.testing.assert_allclose(geom.center, [[0.5, 0.0]], atol=TOL)


def test_ball_geometry_zero_beta_for_covering_samples():
    dist = make_dist(3, [([0, 1, 2], [1])])
    geom = ball_geometry(dist, 0.5)
    assert geom.beta == 0.0


def test_uniform_init():
    dist = make_dist(3, [([0, 2], [1]), ([], [0])])
    init = uniform_init(dist)
    np.testing.assert_allclose(init, [[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]], atol=TOL)


# ── projection ───────────────────────────────────────────────────────


def weighted_dist(rng, n, m):
    """A random distribution with explicit, unequal pair probabilities."""
    pairs = random_dist(rng, n, m).pairs
    probs = rng.random(m) + 0.1
    return SampleTargetDistribution(n, pairs, tuple(probs / probs.sum()))


def weighted_sq(dist, diff):
    """sum_i w_i ||diff_i||^2, with w_i = m pi_i (one for a uniform process)."""
    return float(np.sum(dist.pair_weights[:, None] * diff**2))


def geom_beta(dist):
    b = dist.target_rows
    return weighted_sq(dist, b - np.where(dist.sample_mask, b, 0.0))


def test_projection_matches_scalar_oracle():
    def check(dist, est, label):
        geom = ball_geometry(dist, math.sqrt(geom_beta(dist)) + 0.5)
        projected = project_to_ball(est, geom)
        # independent 1-D solution: lam = min(1, sqrt(slack / d^2)), with
        # d^2 = sum_i w_i ||a_i - c_i||^2
        a = est.dense()
        d2 = weighted_sq(dist, a - geom.center)
        lam = 1.0 if d2 == 0.0 else min(1.0, math.sqrt(max(geom.squared_slack, 0.0) / d2))
        expect = lam * a + (1 - lam) * geom.center
        np.testing.assert_allclose(projected.dense(), expect, atol=PROJ_TOL, err_msg=label)
        return lam

    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 7))
        dist = random_dist(rng, n, m)
        check(dist, random_estimator(rng, dist, scale=3.0), f"trial {trial}")
    rng = np.random.default_rng(28)
    dist = weighted_dist(rng, 7, 6)
    assert check(dist, random_estimator(rng, dist, scale=3.0), "weighted") < 1.0


def test_projection_feasible_and_idempotent():
    def check(dist, est, r):
        geom = ball_geometry(dist, r)
        once = project_to_ball(est, geom)
        dense = once.dense()
        dist_to_b = math.sqrt(weighted_sq(dist, dense - dist.target_rows))
        assert dist_to_b <= r + PROJ_TOL
        twice = project_to_ball(once, geom)
        np.testing.assert_allclose(twice.dense(), dense, atol=PROJ_TOL)
        return dense

    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        dist = random_dist(rng, n, 5)
        est = random_estimator(rng, dist, scale=4.0)
        check(dist, est, math.sqrt(geom_beta(dist)) + float(rng.random()) + 0.1)
    rng = np.random.default_rng(29)
    dist = weighted_dist(rng, 7, 6)
    est = random_estimator(rng, dist, scale=4.0)
    r = math.sqrt(geom_beta(dist)) + 0.3
    # not vacuous: the weighted ball binds
    assert not np.array_equal(check(dist, est, r), est.dense())


def test_projection_keeps_interior_points():
    dist = make_dist(2, [([0, 1], [0, 1])])
    est = estimator_from_dense(dist, np.array([[0.5, 0.5]]))  # equals b: distance 0
    geom = ball_geometry(dist, 1.0)
    assert project_to_ball(est, geom) is est


def test_infeasible_radius_raises():
    dist = make_dist(2, [([0], [1])])  # beta = 1, need r >= 1
    est = estimator_from_dense(dist, np.array([[1.0, 0.0]]))
    with pytest.raises(InfeasibleBallError):
        project_to_ball(est, ball_geometry(dist, 0.5))


def test_projection_rejects_off_support_weight():
    dist = make_dist(3, [([0, 1], [2])])
    other = make_dist(3, [([0, 1, 2], [2])])
    est = estimator_from_dense(other, np.array([[0.2, 0.3, 0.5]]))
    with pytest.raises(ValueError):
        project_to_ball(est, ball_geometry(dist, 2.0))


# ── loss and gradient ────────────────────────────────────────────────


def test_loss_value_matches_inner_product():
    rng = np.random.default_rng(23)
    dist = random_dist(rng, 6, 5)
    est = random_estimator(rng, dist)
    M = build_loss_matrix(est, dist)
    X = rng.standard_normal((6, 6))
    X = X @ X.T
    assert abs(loss_value(est, X, dist) - float(np.sum(M.dense * X))) < 1e-9
    x = rng.standard_normal(6)
    assert abs(loss_value(est, x, dist) - float(x @ M.dense @ x)) < 1e-9


def central_fd_gradient(est, X, dist, delta=1e-5):
    arr = est.dense()
    grad = np.zeros_like(arr)
    for i in range(dist.m):
        for j in dist.pairs[i].sample:
            plus = arr.copy()
            plus[i, j] += delta
            minus = arr.copy()
            minus[i, j] -= delta
            f_plus = loss_value(estimator_from_dense(dist, plus), X, dist)
            f_minus = loss_value(estimator_from_dense(dist, minus), X, dist)
            grad[i, j] = (f_plus - f_minus) / (2 * delta)
    return grad


@pytest.mark.parametrize("x_kind", ["vector", "dense", "assignment"])
def test_gradient_matches_central_differences(x_kind):
    rng = np.random.default_rng(24)
    dist = random_dist(rng, 5, 4)
    est = random_estimator(rng, dist)
    if x_kind == "vector":
        X = rng.standard_normal(5)
    elif x_kind == "dense":
        G = rng.standard_normal((5, 5))
        X = G @ G.T
    else:
        X = sdp_inf_solve(build_loss_matrix(est, dist), 0.01, rng)
    grad = loss_gradient(est, X, dist)
    fd = central_fd_gradient(est, X, dist)
    np.testing.assert_allclose(grad, fd, atol=FD_TOL)


def test_gradient_vanishes_off_support():
    rng = np.random.default_rng(25)
    dist = random_dist(rng, 5, 4)
    est = random_estimator(rng, dist)
    grad = loss_gradient(est, rng.standard_normal(5), dist)
    assert np.all(grad[~dist.sample_mask] == 0.0)


def test_ogd_step_rejects_bad_iteration():
    dist = make_dist(2, [([0, 1], [0, 1])])
    est = estimator_from_dense(dist, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        ogd_step(est, np.ones(2), 0, ball_geometry(dist, 1.0), dist)


def test_ogd_step_fixed_point_at_target():
    # at a = b with X arbitrary the gradient is zero: the step keeps a
    dist = make_dist(2, [([0, 1], [0, 1])])
    est = estimator_from_dense(dist, np.array([[0.5, 0.5]]))
    geom = ball_geometry(dist, 1.0)
    stepped = ogd_step(est, np.array([1.0, -1.0]), 1, geom, dist)
    np.testing.assert_allclose(stepped.dense(), est.dense(), atol=TOL)


# ── runs and doubling ────────────────────────────────────────────────


def subproblem(regime, M, eps, rng):
    """The OGD loop's subproblem: (f_t, X_t) for the regime."""
    if regime == LINF:
        assignment = sdp_inf_solve(M, eps, rng)
        return assignment.objective, assignment
    eig = top_eigen(M)
    return M.dim * eig.rayleigh, math.sqrt(M.dim) * eig.vector


@pytest.mark.parametrize("regime", [L2, LINF])
@pytest.mark.parametrize("weighted", [False, True])
def test_run_single_matches_public_step(regime, weighted):
    # the loop's in-place step against ogd_step on estimator objects, bit
    # for bit, at a radius where the projection binds
    dist = random_dist(np.random.default_rng(21), 6, 5)
    if weighted:
        dist = SampleTargetDistribution(dist.n, dist.pairs, (0.3, 0.1, 0.2, 0.25, 0.15))
    cfg = OgdConfig(regime=regime, eps=0.05, t_max=4, seed=3)
    p = 0.15
    best_a, trace = _run_single(dist, cfg, p)
    assert np.any(trace.lam < 1.0)

    # every run seeds the SDP solver's random starts with (seed, 0)
    rng = np.random.default_rng((cfg.seed, 0))
    geom = ball_geometry(dist, radius_for(regime, dist.m, p))
    est = estimator_from_dense(dist, uniform_init(dist))
    iterates, states = [], []
    for t in range(1, cfg.t_max + 1):
        iterates.append(est)
        states.append(rng.bit_generator.state)
        f_t, X = subproblem(regime, build_loss_matrix(est, dist), cfg.eps, rng)
        assert trace.f_t[t - 1] == f_t, t
        assert trace.inner_steps[t - 1] == (X.sweeps if regime == LINF else 1), t
        est = ogd_step(est, X, t, geom, dist)

    # the returned iterate is the one at best_t, held apart from the loop's buffers
    np.testing.assert_array_equal(best_a, iterates[trace.best_t - 1].dense())
    replay = np.random.default_rng()
    replay.bit_generator.state = states[trace.best_t - 1]
    M = build_loss_matrix(estimator_from_dense(dist, best_a), dist)
    assert subproblem(regime, M, cfg.eps, replay)[0] == trace.best_value


def test_zero_optimum_at_iteration_one():
    # sample = target: uniform init is already exact, both regimes
    rng = np.random.default_rng(26)
    pairs = []
    for _ in range(6):
        s = sorted(rng.choice(8, size=int(rng.integers(1, 8)), replace=False))
        pairs.append((list(s), list(s)))
    dist = make_dist(8, pairs)
    for regime in (L2, LINF):
        est, trace, _ = run_with_doubling(
            dist, OgdConfig(regime=regime, t_max=3, p_doublings_max=0)
        )
        assert trace.best_value <= 1e-9
        assert trace.best_t == 1
        assert abs(trace.f_t[0]) <= 1e-9


def test_ogd_trace_is_deterministic():
    rng = np.random.default_rng(27)
    dist = random_dist(rng, 6, 10, full_targets=True)
    cfg = OgdConfig(regime=L2, t_max=20, seed=3, p_doublings_max=0)
    _, t1, _ = run_with_doubling(dist, cfg)
    _, t2, _ = run_with_doubling(dist, cfg)
    np.testing.assert_array_equal(t1.f_t, t2.f_t)
    np.testing.assert_array_equal(t1.lam, t2.lam)


def test_doubling_accepts_when_value_below_p():
    rng = np.random.default_rng(28)
    dist = random_dist(rng, 6, 10, full_targets=True)
    cfg = OgdConfig(regime=L2, t_max=40, seed=0)
    est, trace, p_final = run_with_doubling(dist, cfg)
    assert trace.best_value <= p_final + TOL
    # the estimator returned is the best iterate of the accepted run
    value = 6 * np.linalg.eigvalsh(build_loss_matrix(est, dist).dense)[-1]
    assert value <= trace.best_value * (1 + 0.01) + 1e-6


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    dist = random_dist(rng, 5, 8, full_targets=True)
    for regime in (L2, LINF):
        _, trace, _ = run_with_doubling(dist, OgdConfig(regime=regime, t_max=10, p_doublings_max=0))
        path = tmp_path / f"trace_{regime}.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "f_t" in header and "elapsed_ms" in header
        assert len(lines) == 1 + 10
        column = [int(line.split(",")[header.index("inner_steps")]) for line in lines[1:]]
        assert column == trace.inner_steps.tolist()
        if regime == L2:
            assert column == [1] * 10
        else:
            # SDP iterations from a random start: at least one each
            assert min(column) >= 1 and max(column) > 1


def test_trace_summary_fields():
    rng = np.random.default_rng(31)
    dist = random_dist(rng, 5, 8, full_targets=True)
    for regime in (L2, LINF):
        _, trace, _ = run_with_doubling(dist, OgdConfig(regime=regime, t_max=10, p_doublings_max=0))
        summary = trace_summary(trace, 0.25)
        for key in ("regime", "best_value", "best_t", "p_final"):
            assert key in summary
        assert summary["inner_steps_mean"] == pytest.approx(float(np.mean(trace.inner_steps)))
        assert summary["inner_steps_max"] == int(np.max(trace.inner_steps))
        if regime == L2:
            assert summary["inner_steps_mean"] == 1.0 and summary["inner_steps_max"] == 1
        else:
            assert summary["inner_steps_max"] > 1
