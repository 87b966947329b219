"""Worst-case error subproblems for a fixed estimator.

Two relaxations of the worst case over data balls are computed from the
loss matrix M(a):

* ``sdp2_value``: n * lambda_max(M), exact for the ball ||x|| <= sqrt(n).
  The top eigenpair comes from a dense ``eigh`` of the smaller Gram matrix
  of the factor.
* ``sdp_inf_solve``: max <M, X> over PSD X with unit diagonal, an upper
  bound within pi/2 of the worst case over the cube |x_j| <= 1.  Solved in
  low-rank factored form X = V^T V by Riemannian gradient ascent over the
  whole factor, on the manifold of unit-norm columns, with Barzilai-Borwein
  steps; one iteration costs one (rank x n)(n x n) product.  Its stop is a
  heuristic oracle, a small linearised gap, not a certificate.  Sign
  rounding recovers a cube adversary.

Each solver checks the Gram matrix it factors, which also catches finite
rows whose products overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    L2,
    LINF,
    DataValues,
    LossMatrix,
    SampleTargetDistribution,
    SemilinearEstimator,
    _is_int,
    build_loss_matrix,
)

# sdp_inf_solve stops once the linearised gap is at most eps / _GAP_DIVISOR
# of the objective's scale.  Of 100, 200, 500 and 1000, 500 is the smallest
# divisor whose median shortfall per call (tools/sdp_accuracy.py) is no
# larger than the former coordinate ascent's on each benchmark problem shape
_GAP_DIVISOR = 500.0


class SdpConvergenceError(RuntimeError):
    """The SDP ascent hit its iteration cap; carries the best assignment found."""

    def __init__(self, assignment: "PsdAssignment"):
        super().__init__(
            f"sdp solver did not converge; best objective {assignment.objective:.6g}"
        )
        self.assignment = assignment


@dataclass(frozen=True)
class EigenResult:
    """Top eigenpair: unit vector, its Rayleigh quotient and iterations used:
    1, or 0 for a zero matrix.  The field stays because benchmark traces read it."""

    vector: np.ndarray
    rayleigh: float
    iterations: int


@dataclass(frozen=True)
class PsdAssignment:
    """Feasible SDP point X = factor^T factor with unit-norm columns (unit diagonal).

    ``sweeps`` is the number of ascent iterations the solver took: the
    count when its heuristic stop held, or the cap on an SdpConvergenceError.
    """

    factor: np.ndarray  # (rank, n), columns are the vector assignments
    objective: float
    rank: int
    sweeps: int = 0

    def dense(self) -> np.ndarray:
        return self.factor.T @ self.factor


def gram(M: LossMatrix, smaller: bool = True) -> np.ndarray:
    """``M.dense`` = rows^T rows, or with ``smaller`` rows rows^T when m < n.
    Built with numpy's overflow and invalid warnings off, as a non-finite
    entry, from non-finite rows or an overflow, raises ValueError."""
    rows = M.rows
    with np.errstate(over="ignore", invalid="ignore"):
        G = rows @ rows.T if smaller and rows.shape[0] < M.dim else M.dense
    if not np.all(np.isfinite(G)):
        raise ValueError("loss matrix Gram has non-finite entries")
    return G


def top_eigen(M: LossMatrix) -> EigenResult:
    """Exact top eigenpair of M = rows^T rows.

    Takes a dense ``eigh`` of the smaller, checked ``gram``: n x n when
    n <= m, else m x m, whose top eigenvector u maps back to
    v = rows^T u / ||rows^T u||.  The cost is O(m k^2 + k^3) for
    k = min(m, n).  The returned Rayleigh quotient is ||rows v||^2, computed
    through the factor, so it is at most lambda_max up to rounding.  One
    iteration is reported, or 0 for an all-zero Gram.
    """
    n = M.dim
    G = gram(M)
    if not G.any():
        v = np.zeros(n)
        v[0] = 1.0
        return EigenResult(v, 0.0, 0)
    rows = M.rows
    vector = np.linalg.eigh(G)[1][:, -1]
    if G.shape[0] != n:
        vector = rows.T @ vector
        vector /= np.linalg.norm(vector)
    y = rows @ vector
    return EigenResult(vector, float(y @ y), 1)


def sdp2_value(
    est: SemilinearEstimator,
    dist: SampleTargetDistribution,
    eps: float,
    rng: np.random.Generator | None = None,
) -> tuple[float, DataValues]:
    """Worst-case error over ||x|| <= sqrt(n): n * lambda_max(M(a)), with adversary.
    The solve is exact: ``eps`` and ``rng`` stay only because the benchmark's checks pass them."""
    M = build_loss_matrix(est, dist)
    eig = top_eigen(M)
    value = dist.n * eig.rayleigh
    adversary = DataValues(math.sqrt(dist.n) * eig.vector, L2)
    return value, adversary


def sdp_inf_solve(
    M: LossMatrix,
    eps: float,
    rng: np.random.Generator,
    max_sweeps: int = 1000,
) -> PsdAssignment:
    """Maximize <M, X> over PSD X with unit diagonal, in factored form.

    X = V^T V with V of rank ceil(sqrt(2n)) + 1 and unit-norm columns, from
    one Gaussian start.  Each iteration is a Riemannian gradient step on the
    unit-column manifold (Wen & Yin, Math. Prog. 2013): with W = V M (M the
    checked ``gram``) and dots_j = <v_j, w_j>, the ascent direction is
    R = W - V Diag(dots), and V <- normalize_columns(V + alpha R), with
    alpha = 1 / max diag M first and the Barzilai-Borwein step
    <s, s> / |<s, y>| after (s and y the changes in V and R).  A zero row of
    M leaves its column of V unchanged, bit for bit.

    The stop is a heuristic oracle: the iterate is taken once the gap of
    the linearised problem, sum_j (||w_j|| - dots_j), is at most
    eps / _GAP_DIVISOR * max(objective, trace M).  That gap is zero exactly
    at stationary points and does not bound the distance to the SDP value.
    The steps need not raise the objective, so the best iterate seen is
    returned, with ``sweeps`` the iterations taken.  Raises
    SdpConvergenceError carrying the best assignment if ``max_sweeps``
    iterations end first; ``max_sweeps=0`` only tests the start.
    """
    if not (_is_int(eps) or isinstance(eps, (float, np.floating))):
        raise ValueError(f"eps must be a float, got {eps!r}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not _is_int(max_sweeps):
        raise ValueError(f"max_sweeps must be an int, got {max_sweeps!r}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    n = M.dim
    dense = gram(M, smaller=False)
    trace = float(np.trace(dense))
    rank = math.ceil(math.sqrt(2 * n)) + 1
    V = rng.standard_normal((rank, n))
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    V /= norms
    # the columns of zero rows take no step and are not renormalised
    dead = ~dense.any(axis=0)
    top = float(dense.diagonal().max())
    alpha = 1.0 / top if top > 0.0 else 1.0
    best_obj, best_V = -math.inf, V
    V_prev = R_prev = None
    for sweep in range(max_sweeps + 1):
        W = V @ dense
        dots = np.einsum("ij,ij->j", V, W)
        obj = float(dots.sum())
        if obj > best_obj:
            best_obj, best_V = obj, V
        gap = float(np.sqrt(np.einsum("ij,ij->j", W, W)).sum()) - obj
        if gap <= eps / _GAP_DIVISOR * max(obj, trace):
            return PsdAssignment(best_V, best_obj, rank, sweep)
        if sweep == max_sweeps:
            break
        R = W - V * dots
        if R_prev is not None:
            s = V - V_prev
            sy = abs(float(np.vdot(s, R - R_prev)))
            if sy > 0.0:
                alpha = float(np.vdot(s, s)) / sy
        V_prev, R_prev = V, R
        V = V + alpha * R
        norms = np.sqrt(np.einsum("ij,ij->j", V, V))
        norms[dead] = 1.0
        V /= norms
    raise SdpConvergenceError(PsdAssignment(best_V, best_obj, rank, max_sweeps))


def round_sign(
    assignment: PsdAssignment,
    M: LossMatrix,
    trials: int,
    rng: np.random.Generator,
) -> DataValues:
    """Gaussian sign rounding of an SDP point to a cube vertex.

    Each trial draws g ~ N(0, I_rank) and takes x = sign(V^T g) with
    sign(0) := +1; the best x^T M x over the trials is kept.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    best_val = -math.inf
    best_x: np.ndarray | None = None
    for _ in range(trials):
        g = rng.standard_normal(assignment.rank)
        x = np.where(assignment.factor.T @ g >= 0.0, 1.0, -1.0)
        val = M.quad(x)
        if val > best_val:
            best_val = val
            best_x = x
    assert best_x is not None
    return DataValues(best_x, LINF)
