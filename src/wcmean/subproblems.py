"""Worst-case error subproblems for a fixed estimator.

Two relaxations of the worst case over data balls are computed from the
loss matrix M(a):

* ``sdp2_value``: n * lambda_max(M), exact for the ball ||x|| <= sqrt(n).
  The top eigenpair comes from a dense ``eigh`` of the smaller Gram matrix
  of the factor.
* ``sdp_inf_solve``: max <M, X> over PSD X with unit diagonal, an upper
  bound within pi/2 of the worst case over the cube |x_j| <= 1.  Solved in
  low-rank factored form X = V^T V by coordinate ascent over the unit-norm
  columns of V, with sign rounding recovering a cube adversary.  A column
  step is three numpy calls on row j of M with its diagonal zeroed: a
  matrix-vector product, its norm and a divide into the column.  Row j
  stands for column j because M = rows^T rows is exactly symmetric.

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
    build_loss_matrix,
)


class SdpConvergenceError(RuntimeError):
    """Coordinate ascent hit its sweep cap; carries the best assignment found."""

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

    ``sweeps`` is the number of coordinate-ascent sweeps that produced it:
    the sweep count at convergence, or the cap on an SdpConvergenceError.
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

    X = V^T V with V of rank ceil(sqrt(2n)) + 1 and unit-norm columns.
    Each coordinate step replaces column j with the normalized sum
    sum_{l != j} M_jl V_l (keeping the column when the sum vanishes), which
    maximizes the objective in that column exactly, so sweeps are monotone.
    The sum is one product V @ off[j] with the contiguous row j of ``off``,
    a copy of M with its diagonal zeroed; row j equals column j because
    ``M.dense`` = rows^T rows, the checked ``gram``, is exactly symmetric.
    Converged when a full sweep improves the objective by at most
    eps/20 * max(objective, trace M).  Raises SdpConvergenceError carrying
    the best assignment if ``max_sweeps`` sweeps end first.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
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
    off = dense.copy()
    np.fill_diagonal(off, 0.0)
    steps = list(zip(off, V.T))  # (row j of off, column j of V) views
    d = np.empty(rank)
    # Bound once: each column step costs about as much in call overhead
    # as in arithmetic.
    product, square, sqrt, divide = V.dot, d.dot, math.sqrt, np.divide

    def objective() -> float:
        return float(np.sum((V @ dense) * V))

    obj = objective()
    for sweep in range(1, max_sweeps + 1):
        for row, col in steps:
            product(row, d)
            nd = sqrt(square(d))
            if nd > 1e-15:
                divide(d, nd, out=col)
        new_obj = objective()
        if new_obj - obj <= (eps / 20.0) * max(new_obj, trace):
            return PsdAssignment(V.copy(), new_obj, rank, sweep)
        obj = new_obj
    raise SdpConvergenceError(PsdAssignment(V.copy(), obj, rank, max_sweeps))


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
