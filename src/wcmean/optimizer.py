"""Online gradient descent over the constrained estimator ball.

Both regimes minimize the worst-case error of a semilinear estimator by
descending f_t(a) = <M(a), X_t>, where X_t solves the regime's worst-case
subproblem at the current iterate:

* l2:   X_t = x x^T for the scaled top eigenvector x = sqrt(n) v of M(a),
        ball radius r = sqrt(m p).
* linf: X_t from the unit-diagonal SDP solver, radius r = sqrt(pi m p / 2).

The feasible set is the subspace-respecting ball around the projected
targets: support(a_i) within the sample set and
sum_i w_i ||a_i - proj b_i||^2 <= r^2 - beta with
beta = sum_i w_i ||b_i - proj b_i||^2, where w_i = m pi_i is pair i's
probability on the multiset scale (one for a uniform distribution).
Iterates start at the per-pair uniform sample average and step along the
gradient in that weighted norm, a_i <- a_i - (2 / (n sqrt(t))) proj_W X
(a_i - b_i), which is eta_t = m / (n sqrt(t)) times the metric gradient.
A distribution with probabilities therefore follows the same path as the
multiset that repeats each pair in proportion to pi_i.  Iterates are
projected back radially, and the best iterate by observed objective is
returned.  An outer doubling scheme grows the radius parameter p until the
achieved objective is at most p.

The l2 subproblem is solved exactly; eps sets only the stopping rule of the
linf SDP solver (and the trace's theoretical iteration count).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    L2,
    LINF,
    SampleTargetDistribution,
    SemilinearEstimator,
    estimator_from_dense,
    loss_factor,
    validate_estimator,
)
from .subproblems import PsdAssignment, SdpConvergenceError, sdp_inf_solve, top_eigen

# slack allowed on ball-membership checks
_FEAS_TOL = 1e-9


class InfeasibleBallError(ValueError):
    """r^2 < beta: the radius is too small for the ball to meet the subspace."""

    def __init__(self, radius: float, beta: float):
        super().__init__(
            f"ball radius {radius:.6g} has r^2 = {radius**2:.6g} < beta = {beta:.6g}"
        )
        self.radius = radius
        self.beta = beta


@dataclass(frozen=True)
class OgdConfig:
    """Knobs for one optimization run and the outer doubling scheme.

    p_init defaults to 1/n and p_doublings_max to ceil(log2 n) + 2 when
    left as None; p_doublings_max = 0 makes one run at radius parameter
    p_init.  eps sets the stopping rule of the linf SDP solver and the
    trace's theoretical iteration count; the l2 subproblem is solved
    exactly and does not depend on it.
    """

    regime: str
    eps: float = 0.01
    t_max: int = 1000
    p_init: float | None = None
    p_doublings_max: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.regime not in (LINF, L2):
            raise ValueError(f"regime must be {LINF!r} or {L2!r}, got {self.regime!r}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.p_init is not None and not 0 < self.p_init < math.inf:
            raise ValueError(f"p_init must be positive and finite, got {self.p_init}")
        if self.p_doublings_max is not None and self.p_doublings_max < 0:
            raise ValueError("p_doublings_max must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class BallGeometry:
    """Feasible-ball data: radius r, offset beta, projected centers, sample
    masks and the per-pair metric weights w_i = m pi_i."""

    radius: float
    beta: float
    center: np.ndarray  # (m, n) per-pair projection of b_i onto the sample subspace
    masks: np.ndarray  # (m, n) sample-set masks
    weights: np.ndarray  # (m,) pair weights of the ball's norm, mean one

    @property
    def squared_slack(self) -> float:
        """r^2 - beta, the squared radius available inside the subspace."""
        return self.radius**2 - self.beta


@dataclass
class OgdTrace:
    """Per-iteration record of one run plus summary diagnostics.

    The regret bound reported is 3 G D / (2 sqrt(T)) for gradient bound
    G = 2 n r / m and diameter D = 2 r, both measured in the ball's
    probability-weighted norm.  The l2 subproblem is exact, but the linf SDP
    solver stops on a per-sweep gain rule that does not bound its distance
    to the optimum, so the bound is an assumption-tagged diagnostic, not a
    certificate (see notes).
    """

    regime: str
    p: float
    eps: float
    t: np.ndarray
    eta: np.ndarray
    f_t: np.ndarray
    lam: np.ndarray
    elapsed_ms: np.ndarray
    best_t: int
    best_value: float
    theoretical_t: float
    regret_bound: float
    notes: tuple[str, ...] = ()


def ball_geometry(dist: SampleTargetDistribution, radius: float) -> BallGeometry:
    """Build the feasible-ball data for a given radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    masks = dist.sample_mask
    b = dist.target_rows
    center = np.where(masks, b, 0.0)
    weights = dist.pair_weights
    beta = float(np.sum(weights[:, None] * (b - center) ** 2))
    return BallGeometry(radius, beta, center, masks, weights)


def radius_for(regime: str, m: int, p: float) -> float:
    """Ball radius for the regime: sqrt(pi m p / 2) for linf, sqrt(m p) for l2."""
    if regime == LINF:
        return math.sqrt(math.pi * m * p / 2.0)
    if regime == L2:
        return math.sqrt(m * p)
    raise ValueError(f"unknown regime {regime!r}")


def _project_dense(
    arr: np.ndarray, geom: BallGeometry, work: tuple = (None, None)
) -> tuple[np.ndarray, float]:
    """Radial projection onto the ball, in place on arr; returns (arr, lambda).

    ``work`` is a pair of (m, n) scratch arrays, allocated when left as None.
    """
    slack = geom.squared_slack
    if slack < -_FEAS_TOL:
        raise InfeasibleBallError(geom.radius, geom.beta)
    slack = max(slack, 0.0)
    diff = np.subtract(arr, geom.center, out=work[0])
    sq = np.multiply(geom.weights[:, None], diff, out=work[1])
    np.multiply(sq, diff, out=sq)
    d2 = float(np.sum(sq))
    if d2 <= slack or d2 == 0.0:
        return arr, 1.0
    lam = math.sqrt(slack / d2)
    np.multiply(lam, arr, out=arr)
    np.add(arr, np.multiply(1.0 - lam, geom.center, out=diff), out=arr)
    return arr, lam


def project_to_ball(est: SemilinearEstimator, geom: BallGeometry) -> SemilinearEstimator:
    """Project an estimator onto the ball: a_i <- lam a_i + (1 - lam) proj b_i."""
    m, n = geom.masks.shape
    if est.m != m or est.n != n:
        raise ValueError("estimator shape does not match the geometry")
    arr = est.dense()
    if np.any(arr[~geom.masks] != 0.0):
        raise ValueError("estimator has weight outside the sample subspace")
    projected, lam = _project_dense(arr, geom)
    if lam == 1.0:
        return est
    weights = []
    for i, w in enumerate(est.weights):
        keys = set(w) | {j for j in np.flatnonzero(geom.center[i]) if geom.masks[i, j]}
        weights.append({int(j): float(projected[i, j]) for j in sorted(keys)})
    return SemilinearEstimator(est.n, tuple(weights))


def uniform_init(dist: SampleTargetDistribution) -> np.ndarray:
    """Starting point: 1/|sample| on each sample set, zero rows for empty samples."""
    masks = dist.sample_mask
    counts = masks.sum(axis=1, keepdims=True).astype(float)
    counts[counts == 0.0] = 1.0
    return masks / counts


def _apply_X(resid: np.ndarray, X, out: np.ndarray | None = None) -> np.ndarray:
    """resid @ X for X a PsdAssignment (X = factor^T factor), a vector x
    (meaning x x^T), or a dense (n, n) array.  Written into ``out`` when
    given, else into a new array."""
    if isinstance(X, PsdAssignment):
        return np.matmul(resid @ X.factor.T, X.factor, out=out)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return np.outer(resid @ X, X, out=out)
    return np.matmul(resid, X, out=out)


def _gradient_dense(
    resid: np.ndarray, X, masks: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(2/m) proj_W X (a_i - b_i) per pair: the gradient of <M(a), X> in the
    ball's weighted metric (the plain gradient divided by w_i = m pi_i).
    X is as for ``_apply_X``; written into ``out`` when given."""
    G = _apply_X(resid, X, out=out)
    np.multiply(G, masks, out=G)
    return np.multiply(2.0 / m, G, out=G)


def _step_in_place(
    a: np.ndarray,
    resid: np.ndarray,
    b: np.ndarray,
    X,
    t: int,
    geom: BallGeometry,
    grad: np.ndarray,
    work: np.ndarray,
) -> tuple[float, float]:
    """One OGD step, in place: a <- project(a - eta_t grad) and resid <- a - b.

    ``resid`` must hold a - b on entry; ``grad`` and ``work`` are (m, n)
    scratch buffers.  Returns (eta_t, projection lambda).
    """
    m, n = a.shape
    eta = m / (n * math.sqrt(t))
    _gradient_dense(resid, X, geom.masks, m, out=grad)
    np.subtract(a, np.multiply(eta, grad, out=grad), out=a)
    _, lam = _project_dense(a, geom, (grad, work))
    np.subtract(a, b, out=resid)
    return eta, lam


def loss_value(est: SemilinearEstimator, X, dist: SampleTargetDistribution) -> float:
    """f(a) = <M(a), X> = sum_i pi_i (a_i - b_i)^T X (a_i - b_i) for a fixed
    subproblem solution X."""
    validate_estimator(est, dist)
    resid = est.dense() - dist.target_rows
    Y = _apply_X(resid, X)
    return float(np.sum(dist.pair_weights[:, None] * resid * Y)) / dist.m


def loss_gradient(est: SemilinearEstimator, X, dist: SampleTargetDistribution) -> np.ndarray:
    """Dense (m, n) gradient of f(a) = <M(a), X> restricted to the sample subspace."""
    validate_estimator(est, dist)
    resid = est.dense() - dist.target_rows
    return dist.pair_weights[:, None] * _gradient_dense(resid, X, dist.sample_mask, dist.m)


def ogd_step(
    est: SemilinearEstimator,
    X,
    t: int,
    geom: BallGeometry,
    dist: SampleTargetDistribution,
) -> SemilinearEstimator:
    """One descent step a - eta_t grad in the ball's weighted metric,
    followed by the ball projection: the step the OGD loop takes."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    validate_estimator(est, dist)
    a = est.dense()
    b = dist.target_rows
    _step_in_place(a, a - b, b, X, t, geom, np.empty_like(a), np.empty_like(a))
    return estimator_from_dense(dist, a)


def _run_single(
    dist: SampleTargetDistribution, cfg: OgdConfig, p: float, run_index: int
) -> tuple[np.ndarray, OgdTrace]:
    """One full OGD run at a fixed radius parameter p; returns (best dense a, trace)."""
    m, n = dist.m, dist.n
    r = radius_for(cfg.regime, m, p)
    geom = ball_geometry(dist, r)
    if geom.squared_slack < -_FEAS_TOL:
        raise InfeasibleBallError(r, geom.beta)
    rng = np.random.default_rng((cfg.seed, run_index))
    b = dist.target_rows
    a = uniform_init(dist)
    resid = a - b
    # the step runs in place in a, resid and these two buffers: fresh (m, n)
    # temporaries are handed back to the OS and faulted in again every
    # iteration (460 minor page faults per iteration at m = 2000, n = 50,
    # against 28 in place)
    grad, work = np.empty((m, n)), np.empty((m, n))
    notes: list[str] = ["regret-bound-assumes-eps-accurate-subproblems"]
    best_value = math.inf
    best_a = a.copy()
    best_t = 1
    t_arr = np.arange(1, cfg.t_max + 1, dtype=float)
    eta_arr = np.empty(cfg.t_max)
    f_arr = np.empty(cfg.t_max)
    lam_arr = np.empty(cfg.t_max)
    ms_arr = np.empty(cfg.t_max)
    for t in range(1, cfg.t_max + 1):
        tic = time.perf_counter()
        M = loss_factor(dist, resid)
        if cfg.regime == LINF:
            try:
                assignment = sdp_inf_solve(M, cfg.eps, rng)
            except SdpConvergenceError as exc:
                assignment = exc.assignment
                if "sdp-sweep-cap-hit" not in notes:
                    notes.append("sdp-sweep-cap-hit")
            f_t = assignment.objective
            X = assignment
        else:
            eig = top_eigen(M, cfg.eps, rng)
            f_t = n * eig.rayleigh
            X = math.sqrt(n) * eig.vector
        if f_t < best_value:
            best_value = f_t
            best_a = a.copy()
            best_t = t
        eta, lam = _step_in_place(a, resid, b, X, t, geom, grad, work)
        eta_arr[t - 1] = eta
        f_arr[t - 1] = f_t
        lam_arr[t - 1] = lam
        ms_arr[t - 1] = (time.perf_counter() - tic) * 1e3
    if cfg.regime == LINF:
        theoretical_t = 36.0 * math.pi**2 * n**2 * p**2 / cfg.eps**2
    else:
        theoretical_t = 36.0 * n**2 * p**2 / cfg.eps**2
    grad_bound = 2.0 * n * r / m
    diameter = 2.0 * r
    regret = 3.0 * grad_bound * diameter / (2.0 * math.sqrt(cfg.t_max))
    trace = OgdTrace(
        regime=cfg.regime,
        p=p,
        eps=cfg.eps,
        t=t_arr,
        eta=eta_arr,
        f_t=f_arr,
        lam=lam_arr,
        elapsed_ms=ms_arr,
        best_t=best_t,
        best_value=best_value,
        theoretical_t=theoretical_t,
        regret_bound=regret,
        notes=tuple(notes),
    )
    return best_a, trace


def run_with_doubling(
    dist: SampleTargetDistribution, cfg: OgdConfig
) -> tuple[SemilinearEstimator, OgdTrace, float]:
    """Grow p geometrically until the best objective is at most p.

    Runs are independent (fresh initialization and rng per p).  Infeasible
    radii (r^2 < beta) are skipped by doubling.  If the doubling cap is
    exhausted the best run seen is returned with a diagnostic note; if every
    radius was infeasible, the last infeasibility error is raised.  With
    ``p_doublings_max=0`` this is one run at ``p_init``.
    """
    n = dist.n
    p = cfg.p_init if cfg.p_init is not None else 1.0 / n
    cap = (
        cfg.p_doublings_max
        if cfg.p_doublings_max is not None
        else math.ceil(math.log2(n)) + 2
    )
    best: tuple[np.ndarray, OgdTrace, float] | None = None
    last_infeasible: InfeasibleBallError | None = None
    for attempt in range(cap + 1):
        try:
            a_dense, trace = _run_single(dist, cfg, p, run_index=attempt)
        except InfeasibleBallError as exc:
            last_infeasible = exc
            p *= 2.0
            continue
        if best is None or trace.best_value < best[1].best_value:
            best = (a_dense, trace, p)
        if trace.best_value <= p:
            trace.notes = trace.notes + ("accepted",)
            return estimator_from_dense(dist, a_dense), trace, p
        p *= 2.0
    if best is None:
        assert last_infeasible is not None
        raise last_infeasible
    a_dense, trace, p_used = best
    trace.notes = trace.notes + ("doubling-cap-exhausted",)
    return estimator_from_dense(dist, a_dense), trace, p_used


def write_trace_csv(trace: OgdTrace, path: str | Path) -> None:
    """Trace CSV: columns t, eta, f_t, lambda, elapsed_ms (6-decimal fixed point)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "f_t", "lambda", "elapsed_ms"])
        for i in range(trace.t.size):
            writer.writerow(
                [
                    int(trace.t[i]),
                    f"{trace.eta[i]:.6f}",
                    f"{trace.f_t[i]:.6f}",
                    f"{trace.lam[i]:.6f}",
                    f"{trace.elapsed_ms[i]:.6f}",
                ]
            )


def trace_summary(trace: OgdTrace, p_final: float | None = None) -> dict:
    """Summary block for the optimizer's JSON output."""
    out = {
        "regime": trace.regime,
        "p": trace.p,
        "eps": trace.eps,
        "iterations": int(trace.t.size),
        "best_t": trace.best_t,
        "best_value": trace.best_value,
        "theoretical_t": trace.theoretical_t,
        "regret_bound": trace.regret_bound,
        "notes": list(trace.notes),
    }
    if p_final is not None:
        out["p_final"] = p_final
    return out
