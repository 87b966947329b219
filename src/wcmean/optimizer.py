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

The doubling skips the radii that a dual lower bound rules out.  For PSD
X with tr X = n let

    g(X) = sum_i pi_i min over u supported on A_i of (u - b_i)^T X (u - b_i),

one least-squares solve per pair.  For every semilinear a, inside the ball
or not, g(X) <= <M(a), X>.  X = I gives g(I) = beta / m, and matrix
exponentiated gradient steps (Tsuda, Raetsch & Warmuth 2005; Arora & Kale
2007) raise the bound along the supergradient M(a*(X)).  A feasible radius
p is ruled out once the regime's bound exceeds p (with a 1e-9 relative
margin for rounding):

* l2: g(X) <= n lambda_max(M(a)), and every iterate's f_t is n rho_t
  from ``top_eigen``, whose Rayleigh quotient is checked on every call to
  be within 1e-12 lambda_max(M(a_t)) of it (with an ``eigh`` fallback), a
  thousandth of the margin, so the attempt at p would end with
  best_value > p and be rejected.
* linf: the same ascent's point, rescaled to X' = D^{-1/2} X D^{-1/2} with
  D = diag(X), has unit diagonal, so g(X') <= <M(a), X'> <= SDP_inf(M(a)).
  g(X') is a second right-hand side of the same solves.  The skip is sound
  relative to the SDP value, not to the solver's: an attempt skipped at p
  could only have been accepted through the SDP solver reporting less than
  the value, which its stopping rule does not rule out.

A run depends on (dist, cfg, p) alone: the linf SDP solver's random starts
are seeded with (cfg.seed, 0) at every attempt.  p enters a run only
through the slack r(p)^2 - beta of the ball, which grows with p, so a run
whose ball never bound (lambda = 1 at every step) is the run of every
larger radius too.  A rejected run of that kind is reused for the larger
radii, with no run and no ascent before them.  Ruling out the radius of
such a run saves nothing, so the ascent is spent only where a run binds:
every attempt but the last runs first, and a run that never binds completes
with no ascent.  One that binds pauses at its first bound step (one to a
few steps in, on the tested processes) for up to _DUAL_STEPS ascent steps,
then stops, the radius ruled out, or continues: the ascent leaves the run's
state alone, so it stays the fresh run at p.  A radius that the bound
reached at smaller radii already rules out is skipped without running.  The
accepted run is therefore the one the loop that runs every radius would
make (in linf, barring such an under-reported acceptance).  The reported
bound is only the one those steps reach, lower than an ascent at every
radius would reach.

The l2 subproblem is solved to within 1e-12 of lambda_max, relatively, and
checked; eps sets only the stopping rule of the linf SDP solver.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import uniform_init
from .core import (
    L2,
    LINF,
    LossMatrix,
    SampleTargetDistribution,
    SemilinearEstimator,
    _estimator_on_mask,
    _is_int,
    _positive_float,
    build_loss_matrix,
    estimator_from_dense,
    loss_factor,
    validate_estimator,
)
from .subproblems import PsdAssignment, SdpConvergenceError, gram, sdp_inf_solve, top_eigen

# slack allowed on ball-membership checks
_FEAS_TOL = 1e-9

# dual ascent steps taken at most per doubling attempt, in either regime
_DUAL_STEPS = 4
# relative margin by which the dual bound must exceed p to rule p out: it
# covers the rounding of the bound and top_eigen's checked shortfall of at
# most 1e-12 lambda_max behind the l2 f_t
_DUAL_MARGIN = 1e-9
# weight of the identity mixed into each dual point, so that every block
# X_AA of a least-squares solve has eigenvalues of at least this
_DUAL_MIX = 1e-6
# floats per batch of gathered (k, k) blocks X_AA
_DUAL_BATCH = 1 << 14


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
    p_init.  eps sets the stopping rule of the linf SDP solver; the l2
    subproblem does not depend on it: its Rayleigh quotient is checked on
    every call to be within 1e-12 lambda_max of ``eigvalsh``'s lambda_max,
    with an ``eigh`` fallback.
    """

    regime: str
    eps: float = 0.01
    t_max: int = 1000
    p_init: float | None = None
    p_doublings_max: int | None = None
    seed: int = 0

    def __post_init__(self):
        # a float or bool count would fail later, inside numpy or range; a
        # bool eps or p_init would run as 0 or 1, and a string fail in a
        # comparison.  numpy scalars are stored as the Python int or float.
        for name in ("t_max", "seed", "p_doublings_max"):
            value = getattr(self, name)
            if value is None and name == "p_doublings_max":
                continue
            if not _is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "eps", _positive_float("eps", self.eps))
        if self.p_init is not None:
            object.__setattr__(self, "p_init", _positive_float("p_init", self.p_init))
        if self.regime not in (LINF, L2):
            raise ValueError(f"regime must be {LINF!r} or {L2!r}, got {self.regime!r}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
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


@dataclass(frozen=True)
class AttemptRecord:
    """One doubling attempt: its radius parameter p, its outcome
    (``infeasible``, ``ruled-out``, ``rejected`` or ``accepted``), the best
    value of its run (None when no run completed), the regime's dual bound
    when the attempt was decided, whether the attempt ``reused`` an earlier
    run whose ball never bound, so that no OGD ran for it, the
    ``dual_steps`` of ascent taken at it and the OGD ``iterations`` of its
    one run, which stopped early if the ascent ruled p out."""

    p: float
    outcome: str
    best_value: float | None
    dual_bound: float
    reused: bool = False
    dual_steps: int = 0
    iterations: int = 0


@dataclass(frozen=True)
class OgdTrace:
    """Per-iteration record of one run plus summary diagnostics, immutable.

    ``inner_steps`` counts each iteration's subproblem work: the SDP
    solver's iterations (``PsdAssignment.sweeps``, the cap when it was hit)
    in linf, and ``EigenResult.iterations`` in l2: 1 when the shifted solve
    was accepted, 2 when the ``eigh`` fallback ran after it, 0 for a zero
    loss matrix.

    ``run_with_doubling`` returns a copy that adds its note and sets
    ``attempts``, one record per doubling attempt; ``dual_steps``, the dual
    ascent steps taken over all attempts; and ``dual_bound``, the best bound
    of the regime reached (g(I) = beta / m when no step was taken): for every
    semilinear a, a lower bound on n lambda_max(M(a)) in l2 and on
    SDP_inf(M(a)) in linf.  The linf bound is not one on the SDP solver's
    reported values, which can fall short of the SDP value.
    """

    regime: str
    p: float
    eps: float
    t: np.ndarray
    eta: np.ndarray
    f_t: np.ndarray
    lam: np.ndarray
    elapsed_ms: np.ndarray
    inner_steps: np.ndarray
    best_t: int
    best_value: float
    notes: tuple[str, ...] = ()
    attempts: tuple[AttemptRecord, ...] = ()
    dual_bound: float | None = None
    dual_steps: int = 0


def _projected_targets(dist: SampleTargetDistribution) -> tuple[np.ndarray, float]:
    """proj b, the targets zeroed off their sample sets, and
    beta = sum_i w_i ||b_i - proj b_i||^2."""
    b = dist.target_rows
    center = np.where(dist.sample_mask, b, 0.0)
    return center, float(np.sum(dist.pair_weights[:, None] * (b - center) ** 2))


def ball_geometry(dist: SampleTargetDistribution, radius: float) -> BallGeometry:
    """Build the feasible-ball data for a given radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    center, beta = _projected_targets(dist)
    return BallGeometry(radius, beta, center, dist.sample_mask, dist.pair_weights)


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
    if d2 <= slack:
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
    return _estimator_on_mask(geom.masks, projected)


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
    subproblem solution X, from the factor rows of ``build_loss_matrix``."""
    M = build_loss_matrix(est, dist)
    return float(np.vdot(_apply_X(M.rows, X), M.rows))


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
    dist: SampleTargetDistribution, cfg: OgdConfig, p: float, dual: _Dual | None = None
) -> tuple[np.ndarray | None, OgdTrace]:
    """One OGD run at a fixed radius parameter p; returns (best dense a, trace).

    Given ``dual``, the first step whose projection binds (lambda < 1) is
    followed by the ascent at p.  If the dual then rules p out, the run
    stops and returns (None, the trace of the steps run); else it continues
    from its own state, which is the one a fresh run reaches there.
    """
    m, n = dist.m, dist.n
    r = radius_for(cfg.regime, m, p)
    geom = ball_geometry(dist, r)
    if geom.squared_slack < -_FEAS_TOL:
        raise InfeasibleBallError(r, geom.beta)
    # only the linf SDP solver draws: its random starts, the same at every
    # p, so that a run whose ball never binds is the run of every larger p
    rng = np.random.default_rng((cfg.seed, 0)) if cfg.regime == LINF else None
    b = dist.target_rows
    a = uniform_init(dist)
    resid = a - b
    # the step runs in place in a, resid and these two buffers: fresh (m, n)
    # temporaries are handed back to the OS and faulted in again every
    # iteration (460 minor page faults per iteration at m = 2000, n = 50,
    # against 28 in place)
    grad, work = np.empty((m, n)), np.empty((m, n))
    notes: list[str] = []
    best_value = math.inf
    best_a = a.copy()
    best_t = 1
    t_arr = np.arange(1, cfg.t_max + 1, dtype=float)
    eta_arr = np.empty(cfg.t_max)
    f_arr = np.empty(cfg.t_max)
    lam_arr = np.empty(cfg.t_max)
    ms_arr = np.empty(cfg.t_max)
    inner_arr = np.empty(cfg.t_max, dtype=int)
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
            inner_arr[t - 1] = assignment.sweeps
            X = assignment
        else:
            eig = top_eigen(M)
            f_t = n * eig.rayleigh
            inner_arr[t - 1] = eig.iterations
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
        if dual is not None and lam < 1.0:
            # the step's buffers, dropped while the ascent runs so that its
            # temporaries do not add to them (0.7 MB of peak at n = 200)
            grad = work = M = None
            dual.raise_above(p)
            if dual.rules_out(p):
                best_a = None
                break
            dual = None
            grad, work = np.empty((m, n)), np.empty((m, n))
    trace = OgdTrace(
        regime=cfg.regime,
        p=p,
        eps=cfg.eps,
        t=t_arr[:t],
        eta=eta_arr[:t],
        f_t=f_arr[:t],
        lam=lam_arr[:t],
        elapsed_ms=ms_arr[:t],
        inner_steps=inner_arr[:t],
        best_t=best_t,
        best_value=best_value,
        notes=tuple(notes),
    )
    return best_a, trace


def _sample_batches(masks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pairs with a nonempty sample, batched by sample size k: each batch
    is (rows (c,), sample indices (c, k)), with c k^2 <= _DUAL_BATCH where
    c > 1."""
    sizes = masks.sum(axis=1)
    # bincount, not np.unique: numpy 2.4's unique maps 1.5 MB on first use
    counts = np.bincount(sizes)
    counts[0] = 0
    batches = []
    for k in np.flatnonzero(counts):
        rows = np.flatnonzero(sizes == k)
        cols = np.nonzero(masks[rows])[1].reshape(rows.size, k)
        step = max(1, _DUAL_BATCH // (k * k))
        for s in range(0, rows.size, step):
            batches.append((rows[s : s + step], cols[s : s + step]))
    return batches


def _dual_point(
    dist: SampleTargetDistribution, batches: list, X: np.ndarray, rescaled: bool = False
) -> tuple[float, np.ndarray, float | None]:
    """g(X) for a symmetric positive definite X, the factor rows of its
    supergradient M(a*(X)) = rows^T rows, and, when ``rescaled``, g(X') for
    the unit-diagonal X' = D^{-1/2} X D^{-1/2} with D = diag(X) (else None).

    Pair i's minimizer solves X_AA u_A = (X b_i)_A on its sample set A, one
    batched ``np.linalg.solve`` per batch of equal sample sizes, and only the
    sample entries of a* are written.  As (u - b)^T X' (u - b) equals
    (v - c)^T X (v - c) for v = D^{-1/2} u, which has the support of u, and
    c = D^{-1/2} b, g(X') is the same minimization against the target c: a
    second right-hand side of the same solves.  Each value is <M(a*), X> at
    the computed a*, which is feasible, so a solve error raises it only by
    the second-order term d^T X_AA d of the error d.
    """
    b = dist.target_rows
    targets = (b, b / np.sqrt(np.diag(X))) if rescaled else (b,)
    rhs = np.empty(b.shape + (len(targets),))
    for k, target in enumerate(targets):
        np.matmul(target, X, out=rhs[..., k])
    sol = np.zeros_like(rhs)
    for idx, cols in batches:
        block = X[cols[:, :, None], cols[:, None, :]]
        sol[idx[:, None], cols] = np.linalg.solve(block, rhs[idx[:, None], cols])
    del rhs
    # in place, as each (m, n) temporary raises the resident peak at large n
    scale = np.sqrt(dist.pair_weights / dist.m)[:, None]
    values = []
    for k, target in enumerate(targets):
        rows = sol[..., k]
        rows -= target
        rows *= scale
        values.append(float(np.vdot(rows @ X, rows)))
    return values[0], sol[..., 0], values[1] if rescaled else None


def l2_dual_bound(dist: SampleTargetDistribution, X: np.ndarray) -> float:
    """g(X) = sum_i pi_i min over u supported on A_i of (u - b_i)^T X (u - b_i).

    For X symmetric positive definite this is at most <M(a), X> for every
    semilinear estimator a: so at most n lambda_max(M(a)) when tr X = n,
    and at most SDP_inf(M(a)) when X has unit diagonal.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (dist.n, dist.n):
        raise ValueError(f"X must be ({dist.n}, {dist.n}), got {X.shape}")
    return _dual_point(dist, _sample_batches(dist.sample_mask), X)[0]


class _Dual:
    """Matrix exponentiated gradient ascent on the dual bound g, for the
    doubling of either regime.

    The point is X = (1 - mix) n exp(S) / tr exp(S) + mix I, where S sums
    the supergradients M(a*(X)) met, each scaled to spectral norm 2 / sqrt(t)
    for the t-th, t = steps + 1 as it is added.  It starts at S = 0, X = I,
    where a* is the projected target and g(I) = beta / m needs no solve.
    Each supergradient is added to S as soon as it is found, so that S is
    the only (n, n) array kept between steps.  ``value`` is the regime's
    bound: the best g(X) seen in l2, and in linf the best g(X') over the
    unit-diagonal rescalings X' = D^{-1/2} X D^{-1/2} of the same points.
    X = I is its own, so it starts at beta / m in both.  ``steps`` counts
    the ascent steps taken.  The sample batches and S are built on the first
    step, so that a fit which takes none pays only for g(I).
    """

    def __init__(self, dist: SampleTargetDistribution, regime: str):
        self.dist = dist
        self.regime = regime
        center, self.beta = _projected_targets(dist)
        rows = self._identity_rows(center)
        self.value = float(np.vdot(rows, rows))
        self.S: np.ndarray | None = None
        self.steps = 0

    def _identity_rows(self, center: np.ndarray) -> np.ndarray:
        """Factor rows of the supergradient at X = I, where a* is the
        projected target ``center``: sqrt(pi_i) (proj b_i - b_i)."""
        dist = self.dist
        return (center - dist.target_rows) * np.sqrt(dist.pair_weights / dist.m)[:, None]

    def _add(self, rows: np.ndarray) -> None:
        """S += the supergradient rows^T rows scaled to norm 2 / sqrt(t)."""
        M = LossMatrix(self.dist.n, rows)
        lam = np.linalg.eigvalsh(gram(M))[-1]
        self.moving = lam > 0.0
        if self.moving:
            self.S += (2.0 / (lam * math.sqrt(self.steps + 1))) * M.dense

    def feasible(self, p: float) -> bool:
        """Whether the ball at p meets the sample subspace, by the test
        ``_run_single`` makes."""
        return radius_for(self.regime, self.dist.m, p) ** 2 - self.beta >= -_FEAS_TOL

    def rules_out(self, p: float) -> bool:
        return self.value > p * (1.0 + _DUAL_MARGIN)

    def raise_above(self, p: float) -> None:
        """Take up to _DUAL_STEPS ascent steps, stopping once p is ruled out."""
        n = self.dist.n
        rescaled = self.regime == LINF
        for _ in range(_DUAL_STEPS):
            if self.rules_out(p):
                return
            if self.S is None:
                self.batches = _sample_batches(self.dist.sample_mask)
                self.S = np.zeros((n, n))
                self._add(self._identity_rows(_projected_targets(self.dist)[0]))
            if not self.moving:
                return
            s, Q = np.linalg.eigh(self.S)
            w = np.exp(s - s[-1])
            Q *= np.sqrt((1.0 - _DUAL_MIX) * n / w.sum() * w)
            # each (n, n) temporary is freed before the next is made, which
            # keeps the resident peak down at large n
            X = Q @ Q.T  # an exactly symmetric product
            del Q
            X.flat[:: n + 1] += _DUAL_MIX
            value, rows, unit = _dual_point(self.dist, self.batches, X, rescaled)
            del X
            self.steps += 1
            self.value = max(self.value, unit if rescaled else value)
            self._add(rows)


def run_with_doubling(
    dist: SampleTargetDistribution, cfg: OgdConfig
) -> tuple[SemilinearEstimator, OgdTrace, float]:
    """Grow p geometrically until the best objective is at most p.

    Each run starts afresh (same initialization, and in linf the same rng
    seed, at every p), and each attempt makes at most one run.  Infeasible
    radii (r^2 < beta) are skipped by doubling.  A run that never binds
    completes with no dual ascent.  In every attempt but the last, a run
    pauses at the first step whose ball binds, and the dual ascent steps at
    p: once the regime's bound rules p out (see the module docstring) the
    run stops and the radius is skipped, else the run continues.  Once a run
    is rejected whose ball never bound, every larger radius reuses it, with
    no run and no ascent: it is accepted at the first p at least its best
    value.  If the doubling cap is exhausted, the best run seen leaves by
    the same exit as an accepted run, with the note
    ``doubling-cap-exhausted`` in place of ``accepted``; ruled-out radii
    never completed a run, so it is the best of the runs made, which may
    differ from the best of all radii.
    If every radius was infeasible, the last infeasibility error is raised.
    With ``p_doublings_max=0`` this is one run at ``p_init``.
    """
    n = dist.n
    p = cfg.p_init if cfg.p_init is not None else 1.0 / n
    cap = (
        cfg.p_doublings_max
        if cfg.p_doublings_max is not None
        else math.ceil(math.log2(n)) + 2
    )
    dual = _Dual(dist, cfg.regime)
    records: list[AttemptRecord] = []
    best: tuple[np.ndarray, OgdTrace, float] | None = None
    # a rejected run whose ball never bound: the run of every larger p
    unbound: tuple[np.ndarray, OgdTrace] | None = None
    last_infeasible: InfeasibleBallError | None = None
    for attempt in range(cap + 1):
        reused = unbound is not None
        # an infeasible radius is left to _run_single, which raises on it
        skippable = not reused and attempt < cap and dual.feasible(p)
        if skippable and dual.rules_out(p):
            # ruled out by the ascent at a smaller radius, with no run
            records.append(AttemptRecord(p, "ruled-out", None, dual.value))
            p *= 2.0
            continue
        steps_before = dual.steps
        if reused:
            a_dense, trace = unbound[0], replace(unbound[1], p=p)
        else:
            try:
                a_dense, trace = _run_single(dist, cfg, p, dual if skippable else None)
            except InfeasibleBallError as exc:
                records.append(AttemptRecord(p, "infeasible", None, dual.value))
                last_infeasible = exc
                p *= 2.0
                continue
        ruled_out = a_dense is None
        accepted = not ruled_out and trace.best_value <= p
        outcome = "ruled-out" if ruled_out else "accepted" if accepted else "rejected"
        records.append(
            AttemptRecord(
                p, outcome, None if ruled_out else trace.best_value, dual.value,
                reused=reused, dual_steps=dual.steps - steps_before,
                iterations=0 if reused else trace.t.size,
            )
        )
        if accepted:
            chosen, note = (a_dense, trace, p), "accepted"
            break
        if not ruled_out:
            if best is None or trace.best_value < best[1].best_value:
                best = (a_dense, trace, p)
            if not reused and np.all(trace.lam == 1.0):
                unbound = (a_dense, trace)
        p *= 2.0
    else:
        if best is None:
            assert last_infeasible is not None
            raise last_infeasible
        chosen, note = best, "doubling-cap-exhausted"
    a_dense, trace, p = chosen
    trace = replace(trace, notes=trace.notes + (note,), attempts=tuple(records),
                    dual_bound=dual.value, dual_steps=dual.steps)
    return estimator_from_dense(dist, a_dense), trace, p


def write_trace_csv(trace: OgdTrace, path: str | Path) -> None:
    """Trace CSV: columns t, eta, f_t, lambda, elapsed_ms (6-decimal fixed
    point) and inner_steps (an int)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "f_t", "lambda", "elapsed_ms", "inner_steps"])
        for i in range(trace.t.size):
            writer.writerow(
                [
                    int(trace.t[i]),
                    f"{trace.eta[i]:.6f}",
                    f"{trace.f_t[i]:.6f}",
                    f"{trace.lam[i]:.6f}",
                    f"{trace.elapsed_ms[i]:.6f}",
                    int(trace.inner_steps[i]),
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
        "notes": list(trace.notes),
        "attempts": [asdict(rec) for rec in trace.attempts],
        "dual_steps": trace.dual_steps,
        "inner_steps_mean": float(trace.inner_steps.mean()),
        "inner_steps_max": int(trace.inner_steps.max()),
    }
    if trace.dual_bound is not None:
        out["dual_bound"] = trace.dual_bound
    if p_final is not None:
        out["p_final"] = p_final
    return out
