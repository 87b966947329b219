"""Solvers for the two inner maximizations, checked against brute force.

Oracles: dense eigensolver for the l2 value, exhaustive {-1,+1}^n
enumeration for the unit-diagonal SDP sandwich, random unit vectors as a
lower-bound probe.
"""

import math

import numpy as np
import pytest

from conftest import dense_lambda_max, hypercube_max, make_dist, random_dist, sdp_bracket
from wcmean import optimizer
from wcmean.collectors import gen_importance, gen_selective, gen_snowball
from wcmean.core import (
    LossMatrix,
    SemilinearEstimator,
    build_loss_matrix,
    estimator_from_dense,
)
from wcmean.subproblems import (
    _GAP_DIVISOR,
    SdpConvergenceError,
    sdp2_value,
    sdp_inf_solve,
    top_eigen,
)

TOL = 1e-9
EPS = 0.01


def random_instance(rng, n, m):
    """Random distribution plus a random feasible estimator's loss matrix."""
    dist = random_dist(rng, n, m)
    arr = np.where(dist.sample_mask, rng.standard_normal((m, n)), 0.0)
    est = estimator_from_dense(dist, arr)
    return dist, est, build_loss_matrix(est, dist)


def hand_matrix():
    # single pair, A = {0}, B = {0, 1}: M = [[.25, -.25], [-.25, .25]]
    dist = make_dist(2, [([0], [0, 1])])
    est = SemilinearEstimator(2, ({0: 1.0},))
    return dist, est


# ── top_eigen ────────────────────────────────────────────────────────


def test_top_eigen_zero_matrix():
    # the m x m Gram (m < n) and the n x n Gram (n <= m)
    for m, n in ((2, 3), (3, 2)):
        res = top_eigen(LossMatrix(n, np.zeros((m, n))))
        assert res.rayleigh == 0.0 and res.iterations == 0
        np.testing.assert_array_equal(res.vector, np.eye(n)[0])


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e200], ids=["nan", "inf", "-inf", "overflow"])
@pytest.mark.parametrize("m, n", [(6, 4), (3, 5)], ids=["n<=m", "m<n"])
def test_solvers_refuse_a_gram_that_is_not_finite(entry, m, n):
    # 1e200 is finite, but its square overflows the Gram that both solvers
    # factor; numpy's overflow warning must not escape either
    rows = np.random.default_rng(m).standard_normal((m, n))
    rows[1, 2] = entry
    M = LossMatrix(n, rows)
    with pytest.raises(ValueError, match="non-finite"):
        top_eigen(M)
    with pytest.raises(ValueError, match="non-finite"):
        sdp_inf_solve(M, EPS, np.random.default_rng(0))


def test_top_eigen_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 9))
        _, _, M = random_instance(rng, n, m)
        res = top_eigen(M)
        lam = dense_lambda_max(M.dense)
        assert res.rayleigh <= lam + TOL, trial
        assert lam <= res.rayleigh * (1 + EPS / 10) + TOL, (trial, lam, res.rayleigh)


def factor_with_singular_values(rng, m, n, s):
    """(m, n) factor U diag(s) V^T, so that M = rows^T rows has eigenvalues s^2."""
    U = np.linalg.qr(rng.standard_normal((m, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return (U * s) @ V.T


@pytest.mark.parametrize(
    "m, n, s",
    [
        (9, 5, None),  # n <= m: eigh of the n x n Gram
        (5, 9, None),  # m < n: eigh of the m x m Gram, mapped back
        (40, 40, None),
        (300, 260, None),
        (1, 7, None),  # rank one
        (6, 4, [2.0, 2.0, 1.0, 0.5]),  # repeated top eigenvalue, n <= m
        (3, 8, [1.5, 1.5, 0.3]),  # repeated top eigenvalue, m < n
    ],
)
def test_top_eigen_exact(m, n, s):
    rng = np.random.default_rng(m * 100 + n)
    if s is None:
        rows = rng.standard_normal((m, n))
    else:
        rows = factor_with_singular_values(rng, m, n, np.array(s))
    M = LossMatrix(n, rows)
    res = top_eigen(M)
    lam = dense_lambda_max(M.dense)
    assert res.iterations == 1
    assert res.rayleigh == pytest.approx(lam, rel=1e-10)
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(M.dense @ res.vector, lam * res.vector, atol=1e-10 * lam)


# ── sdp2_value ───────────────────────────────────────────────────────


def test_sdp2_zero_when_estimator_matches_target():
    dist = make_dist(3, [([0, 1, 2], [0, 1, 2])])
    est = SemilinearEstimator(3, ({0: 1 / 3, 1: 1 / 3, 2: 1 / 3},))
    value, _ = sdp2_value(est, dist, EPS)
    assert abs(value) < TOL


def test_sdp2_hand_case():
    dist, est = hand_matrix()
    value, adversary = sdp2_value(est, dist, EPS)
    # lambda_max = 0.5, n = 2 -> value 1.0; adversary proportional to (1, -1)
    assert abs(value - 1.0) < 1e-6
    x = adversary.values
    assert abs(abs(x[0]) - 1.0) < 1e-4 and abs(x[0] + x[1]) < 1e-4


def test_sdp2_beats_random_unit_probe():
    rng = np.random.default_rng(12)
    dist, est, M = random_instance(rng, 6, 5)
    value, _ = sdp2_value(est, dist, EPS, rng)
    probes = rng.standard_normal((10_000, 6))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    probe_best = float(np.max(np.einsum("ij,jk,ik->i", probes, M.dense, probes)))
    assert value >= 6 * probe_best - 1e-6


# ── sdp_inf_solve ────────────────────────────────────────────────────


def test_sdp_inf_identity_matrix():
    # <I, X> = trace X = 3 for any feasible X
    M = LossMatrix(3, np.eye(3))
    assert np.allclose(M.dense, np.eye(3))
    res = sdp_inf_solve(M, EPS, np.random.default_rng(0))
    assert abs(res.objective - 3.0) < 1e-6


def test_sdp_inf_hand_case():
    dist, est = hand_matrix()
    M = build_loss_matrix(est, dist)
    res = sdp_inf_solve(M, EPS, np.random.default_rng(0))
    # X = [[1, -1], [-1, 1]] achieves 1.0, the 2x2 optimum
    assert abs(res.objective - 1.0) < 1e-6


def test_sdp_inf_unit_diagonal_invariant():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        _, _, M = random_instance(rng, n, 4)
        res = sdp_inf_solve(M, EPS, rng)
        np.testing.assert_allclose(np.diag(res.dense()), np.ones(n), atol=TOL)


def test_sdp_inf_hypercube_sandwich():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n = int(rng.integers(2, 13))
        _, _, M = random_instance(rng, n, 5)
        res = sdp_inf_solve(M, EPS, rng)
        cube = hypercube_max(M.dense)
        assert cube <= res.objective * (1 + EPS / 10) + TOL, trial
        assert res.objective <= (math.pi / 2) * cube + 1e-6, trial


def test_sdp_inf_below_sdp2():
    # trace X = n and X PSD give <M, X> <= n lambda_max
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        _, _, M = random_instance(rng, n, 4)
        res = sdp_inf_solve(M, EPS, rng)
        assert res.objective <= n * dense_lambda_max(M.dense) + 1e-6


def test_sdp_inf_sweep_cap_carries_assignment():
    rng = np.random.default_rng(16)
    _, _, M = random_instance(rng, 8, 4)
    with pytest.raises(SdpConvergenceError) as exc:
        sdp_inf_solve(M, EPS, rng, max_sweeps=0)
    assert exc.value.assignment.factor.shape[1] == 8
    assert exc.value.assignment.sweeps == 0


def test_sdp_inf_rejects_bad_eps():
    M = LossMatrix(2, np.eye(2))
    # an int beyond float range raised OverflowError in the stop rule
    for eps in [0.0, -0.1, math.nan, math.inf, 10**400]:
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            sdp_inf_solve(M, eps, np.random.default_rng(0))


def test_sdp_inf_rejects_negative_sweep_cap():
    M = LossMatrix(2, np.eye(2))
    with pytest.raises(ValueError):
        sdp_inf_solve(M, EPS, np.random.default_rng(0), max_sweeps=-3)


@pytest.mark.parametrize(
    "kwargs",
    [{"eps": True}, {"max_sweeps": True}, {"max_sweeps": 2.5}],
    ids=["bool-eps", "bool-cap", "float-cap"],
)
def test_sdp_inf_rejects_non_numeric_arguments(kwargs):
    # a bool eps ran as 1 and a bool cap as 1; a float cap died in range()
    M = LossMatrix(2, np.eye(2))
    args = {"eps": EPS, **kwargs}
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        sdp_inf_solve(M, rng=np.random.default_rng(0), **args)


def test_sdp_inf_accepts_numpy_scalars():
    M = LossMatrix(2, np.eye(2))
    res = sdp_inf_solve(M, np.float64(EPS), np.random.default_rng(0), max_sweeps=np.int64(50))
    assert res.objective == pytest.approx(2.0, rel=1e-12)


def reference_sdp_inf(M, eps, rng, max_sweeps=1000):
    """The former solver, coordinate ascent over the columns in its textbook
    form: d = V M_{:,j} - M_jj V_j.  It stopped once a sweep gained at most
    eps/20 * max(objective, trace M); returns (factor, objective, sweeps,
    converged)."""
    dense = M.dense
    trace = float(np.trace(dense))
    n = M.dim
    rank = math.ceil(math.sqrt(2 * n)) + 1
    V = rng.standard_normal((rank, n))
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    V /= norms
    obj = float(np.sum((V @ dense) * V))
    for sweep in range(1, max_sweeps + 1):
        for j in range(n):
            d = V @ dense[:, j] - dense[j, j] * V[:, j]
            nd = float(np.linalg.norm(d))
            if nd > 1e-15:
                V[:, j] = d / nd
        new_obj = float(np.sum((V @ dense) * V))
        if new_obj - obj <= (eps / 20.0) * max(new_obj, trace):
            return V, new_obj, sweep, True
        obj = new_obj
    return V, obj, max_sweeps, False


def reference_riemannian_sdp_inf(M, eps, rng, max_sweeps=1000):
    """The Riemannian ascent with Barzilai-Borwein steps, one column at a time.

    Same random start, step, stop and cap as ``sdp_inf_solve``; returns
    (best factor, best objective, iterations, converged)."""
    dense = M.dense
    trace = float(np.trace(dense))
    n = M.dim
    rank = math.ceil(math.sqrt(2 * n)) + 1
    V = rng.standard_normal((rank, n))
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    V /= norms
    alpha = 1.0 / max(dense[j, j] for j in range(n)) if np.any(dense) else 1.0
    best_V, best_obj = V, -math.inf
    previous = None
    for it in range(max_sweeps + 1):
        W = V @ dense
        obj = float(np.trace(V.T @ W))  # <M, V^T V>
        if obj > best_obj:
            best_V, best_obj = V, obj
        gap = sum(np.linalg.norm(W[:, j]) - V[:, j] @ W[:, j] for j in range(n))
        if gap <= eps / _GAP_DIVISOR * max(obj, trace):
            return best_V, best_obj, it, True
        if it == max_sweeps:
            break
        # Riemannian gradient: each w_j less its component along v_j
        R = np.column_stack([W[:, j] - (V[:, j] @ W[:, j]) * V[:, j] for j in range(n)])
        if previous is not None:
            s, y = V - previous[0], R - previous[1]
            if abs(np.sum(s * y)) > 0.0:
                alpha = np.sum(s * s) / abs(np.sum(s * y))
        previous = V, R
        step = V + alpha * R
        V = np.column_stack([
            step[:, j] / np.linalg.norm(step[:, j]) if np.any(dense[j]) else V[:, j]
            for j in range(n)
        ])
    return best_V, best_obj, max_sweeps, False


def assert_matches_reference(M, seed):
    ref_V, ref_obj, ref_sweeps, converged = reference_riemannian_sdp_inf(
        M, EPS, np.random.default_rng(seed)
    )
    assert converged
    res = sdp_inf_solve(M, EPS, np.random.default_rng(seed))
    assert res.sweeps == ref_sweeps
    assert res.objective == pytest.approx(ref_obj, rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(res.factor, ref_V, rtol=0, atol=1e-10)
    return res


def test_sdp_inf_matches_reference_sweep_on_random_instances():
    rng = np.random.default_rng(18)
    for n in range(1, 13):
        for _ in range(3):
            m = int(rng.integers(1, 9))
            _, _, M = random_instance(rng, n, m)
            assert_matches_reference(M, int(rng.integers(1 << 30)))


def test_sdp_inf_matches_reference_sweep_at_benchmark_size():
    rng = np.random.default_rng(19)
    _, _, M = random_instance(rng, 50, 150)
    res = assert_matches_reference(M, 7)
    assert res.sweeps > 1


def test_sdp_inf_matches_reference_sweep_single_point():
    M = LossMatrix(1, np.array([[0.5], [-2.0]]))
    res = assert_matches_reference(M, 3)
    assert res.objective == pytest.approx(0.5**2 + 2.0**2, rel=1e-12)


def test_sdp_inf_keeps_column_of_zero_row():
    rng = np.random.default_rng(20)
    rows = rng.standard_normal((6, 7))
    dead = [1, 4, 5]
    rows[:, dead] = 0.0  # these rows and columns of M vanish
    M = LossMatrix(7, rows)
    res = assert_matches_reference(M, 11)
    assert res.sweeps > 1
    start, *_ = reference_riemannian_sdp_inf(M, EPS, np.random.default_rng(11), max_sweeps=0)
    np.testing.assert_array_equal(res.factor[:, dead], start[:, dead])
    # renormalising these unit columns would change their bits
    assert np.any(start[:, dead] / np.linalg.norm(start[:, dead], axis=0) != start[:, dead])


def ogd_loss_matrices(monkeypatch, dist, t_max):
    """The loss matrices of an l2 fit's iterates, recorded at its eigensolves:
    the subproblems of a fit, from a path that no SDP solve steers."""
    seen = []

    def record(M):
        seen.append(M)
        return top_eigen(M)

    monkeypatch.setattr(optimizer, "top_eigen", record)
    optimizer.run_with_doubling(dist, optimizer.OgdConfig(regime="l2", t_max=t_max))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("shape", ["importance", "snowball", "selective", "wide"])
def test_sdp_inf_shortfall_is_no_larger_than_coordinate_ascent(monkeypatch, shape):
    dist = {
        "importance": lambda: gen_importance(n=50, split=25, m=150, seed=0)[0],
        "snowball": lambda: gen_snowball(n=50, k=25, m=150, seed=0)[0],
        "selective": lambda: gen_selective(n=32, windows=(1, 2, 4, 8, 16)),
        "wide": lambda: gen_importance(n=200, split=100, m=100, seed=0)[0],
    }[shape]()
    new, old = [], []
    for k, M in enumerate(ogd_loss_matrices(monkeypatch, dist, 40)[::2]):
        lower, upper = sdp_bracket(M)
        assert upper - lower <= 1e-5 * upper, k
        for seed in (k, k + 100):
            value = sdp_inf_solve(M, EPS, np.random.default_rng(seed)).objective
            baseline = reference_sdp_inf(M, EPS, np.random.default_rng(seed))[1]
            assert value <= upper * (1 + 1e-12) and baseline <= upper * (1 + 1e-12)
            new.append(1 - value / upper)
            old.append(1 - baseline / upper)
    assert np.median(new) <= np.median(old), (np.median(new), np.median(old))


def test_sdp_inf_ascent_is_monotone():
    rng = np.random.default_rng(21)
    for trial in range(6):
        n = int(rng.integers(3, 13))
        _, _, M = random_instance(rng, n, int(rng.integers(2, 9)))
        seed = int(rng.integers(1 << 30))
        slack = 1e-12 * float(np.sum(M.rows * M.rows))
        previous = -math.inf
        capped = 0
        for cap in range(8):
            try:
                res = sdp_inf_solve(M, 1e-9, np.random.default_rng(seed), max_sweeps=cap)
            except SdpConvergenceError as exc:
                assert exc.assignment.sweeps == cap
                value = exc.assignment.objective
                capped += 1
            else:
                # converged early: a larger cap returns the same assignment
                assert res.sweeps <= cap
                value = res.objective
            assert value >= previous - slack, (trial, cap, value, previous)
            previous = value
        assert capped >= 3, trial
