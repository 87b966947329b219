"""Independent checks of the program's outputs.

Every reference value here is computed from the distribution's pairs and
the estimator's weights with numpy alone: no solver of the program is
called.  Each check returns ``None`` when the output passes and a short
reason string when it fails.
"""

from __future__ import annotations

import math

import numpy as np

# relative slack for values the program and the benchmark compute by the
# same formula in a different floating-point order
ROUND_TOL = 1e-9


def pair_probs(dist) -> np.ndarray:
    """(m,) pair probabilities: the explicit ones, or uniform 1/m."""
    if dist.probs is None:
        return np.full(dist.m, 1.0 / dist.m)
    return np.array(dist.probs, dtype=float)


def dense_weights(est) -> np.ndarray:
    """(m, n) weight matrix read from the estimator's index -> weight maps."""
    arr = np.zeros((len(est.weights), est.n))
    for i, w in enumerate(est.weights):
        for j, val in w.items():
            arr[i, j] = val
    return arr


def target_means(dist) -> np.ndarray:
    """(m, n) rows 1/|B_i| on each target set."""
    rows = np.zeros((dist.m, dist.n))
    for i, pair in enumerate(dist.pairs):
        rows[i, list(pair.target)] = 1.0 / len(pair.target)
    return rows


def loss_gram(est, dist) -> np.ndarray:
    """Dense M(a) = sum_i pi_i (a_i - b_i)(a_i - b_i)^T."""
    resid = dense_weights(est) - target_means(dist)
    scaled = resid * np.sqrt(pair_probs(dist))[:, None]
    return scaled.T @ scaled


def l2_value(M: np.ndarray) -> float:
    """n * lambda_max(M) from a dense symmetric eigensolve."""
    return M.shape[0] * float(np.linalg.eigvalsh(M)[-1])


def sdp_bracket(
    M: np.ndarray, rel_gap: float = 1e-6, max_sweeps: int = 20000
) -> tuple[float, float]:
    """Bracket [L, U] on max <M, X> over PSD X with unit diagonal.

    L is the value of a feasible full-rank X = V^T V found by exact
    coordinate ascent over the unit-norm columns of V.  U is the dual bound
    <M, X> + n * lambda_max(M - Diag(diag(M X)))^+, valid for every
    feasible X: y = diag(M X) + lambda^+ 1 makes Diag(y) - M PSD, and its
    sum is U.  Sweeps stop once U - L <= rel_gap * U.
    """
    n = M.shape[0]
    if not np.any(M):
        return 0.0, 0.0
    V = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    V /= np.linalg.norm(V, axis=0)
    diag = np.diag(M).copy()
    lower, upper = -math.inf, math.inf
    for sweep in range(max_sweeps):
        for j in range(n):
            d = V @ M[:, j] - diag[j] * V[:, j]
            nd = float(np.linalg.norm(d))
            if nd > 1e-300:
                V[:, j] = d / nd
        if sweep % 10 == 9 or sweep == max_sweeps - 1:
            MX = M @ (V.T @ V)
            value = float(np.trace(MX))
            lam = float(np.linalg.eigvalsh(M - np.diag(np.diag(MX)))[-1])
            lower = max(lower, value)
            upper = min(upper, value + n * max(lam, 0.0))
            if upper - lower <= rel_gap * upper:
                break
    return lower, upper


# --------------------------------------------------------------------------
# checks: None on success, a reason string on failure
# --------------------------------------------------------------------------


def check_fixed_cell(cell: float, est, dist, x: np.ndarray) -> str | None:
    """Cell equals sum_i pi_i (<a_i, x> - mean_{B_i} x)^2."""
    x = np.asarray(x, dtype=float)
    errs = dense_weights(est) @ x - np.array([x[list(p.target)].mean() for p in dist.pairs])
    ref = float(pair_probs(dist) @ (errs * errs))
    if not math.isclose(cell, ref, rel_tol=ROUND_TOL, abs_tol=1e-15):
        return f"fixed cell {cell!r} != recomputed {ref!r}"
    return None


def check_l2_upper(cell: float, l2: float) -> str | None:
    """cell <= n lambda_max: the program reports a Rayleigh value."""
    if cell > l2 * (1.0 + ROUND_TOL):
        return f"l2 cell {cell!r} above n*lambda_max {l2!r}"
    return None


def check_l2_accuracy(cell: float, l2: float, eps: float) -> str | None:
    """n lambda_max <= cell (1 + eps/10), the accuracy OgdConfig promises."""
    if l2 > cell * (1.0 + eps / 10.0):
        return f"l2 cell {cell!r} is {1 - cell / l2:.3%} below n*lambda_max {l2!r}"
    return None


def check_linf_upper(cell: float, bracket: tuple[float, float]) -> str | None:
    """cell <= U (1 + 1e-9): the program reports a feasible SDP value."""
    if cell > bracket[1] * (1.0 + ROUND_TOL):
        return f"linf cell {cell!r} above the dual bound {bracket[1]!r}"
    return None


def check_linf_accuracy(cell: float, bracket: tuple[float, float], eps: float) -> str | None:
    """cell >= L / (1 + eps/10), the accuracy OgdConfig promises."""
    lower = bracket[0]
    if cell < lower / (1.0 + eps / 10.0):
        return f"linf cell {cell!r} is {1 - cell / lower:.3%} below the primal value {lower!r}"
    return None


def check_fit(est, dist, regime: str, p: float) -> str | None:
    """Support on the sample sets and membership of the ball of radius
    parameter p, rebuilt from the pairs."""
    arr = dense_weights(est)
    if est.n != dist.n or arr.shape[0] != dist.m:
        return "fit shape does not match the distribution"
    mask = np.zeros(arr.shape, dtype=bool)
    for i, pair in enumerate(dist.pairs):
        mask[i, list(pair.sample)] = True
    if np.any(arr[~mask] != 0.0):
        return "fit has weight outside a sample set"
    w = dist.m * pair_probs(dist)
    r2 = dist.m * p * (math.pi / 2.0 if regime == "linf" else 1.0)
    dist2 = float(w @ np.sum((arr - target_means(dist)) ** 2, axis=1))
    if dist2 > r2 * (1.0 + ROUND_TOL):
        return f"fit lies outside its ball: sum w_i |a_i - b_i|^2 = {dist2!r} > r^2 = {r2!r}"
    return None


def check_fit_value(value: float, p: float, eps: float, notes) -> str | None:
    """An accepted fit's value is at most p (1 + eps/10); a fit returned
    with the doubling cap exhausted promises nothing."""
    if "doubling-cap-exhausted" not in notes and value > p * (1.0 + eps / 10.0):
        return f"accepted fit has value {value!r} > p (1 + eps/10) = {p * (1.0 + eps / 10.0)!r}"
    return None


def check_dominance(ogd_cell: float, baseline_cells: dict[str, float], eps: float) -> str | None:
    """The OGD column is no worse than any baseline on its own worst-case row, within eps."""
    worse = [name for name, v in baseline_cells.items() if ogd_cell > v * (1.0 + eps)]
    if worse:
        return f"ogd cell {ogd_cell!r} loses to {', '.join(worse)}"
    return None


def check_round_trip(est, back) -> str | None:
    if back.n != est.n or list(back.weights) != list(est.weights):
        return "estimator changed in the JSON round trip"
    return None


def check_certificate(cert, dist) -> str | None:
    """alpha and the side counts recounted from the subset with set
    arithmetic, and no single-index flip of the subset scores higher."""
    probs = pair_probs(dist)

    def score(S: set[int]) -> tuple[float, int, int]:
        one = two = 0
        alpha = 0.0
        for pi, pair in zip(probs, dist.pairs):
            A, B = set(pair.sample), set(pair.target)
            if A <= S and not B & S:
                one += 1
                alpha += pi
            elif not A & S and B <= S:
                two += 1
                alpha += pi
        return alpha, one, two

    S = set(cert.subset)
    alpha, one, two = score(S)
    if (one, two) != (cert.side1_count, cert.side2_count):
        return f"side counts {(cert.side1_count, cert.side2_count)} != recounted {(one, two)}"
    if not math.isclose(cert.alpha, alpha, rel_tol=ROUND_TOL, abs_tol=1e-15):
        return f"alpha {cert.alpha!r} != recounted {alpha!r}"
    for j in range(dist.n):
        flipped = score(S ^ {j})[0]
        if flipped > alpha + ROUND_TOL:
            return f"flipping index {j} raises alpha to {flipped!r}"
    return None


def check_adversary(x: np.ndarray, achieved: float, alpha: float, est, dist) -> str | None:
    """The data lies in the cube, its error against est is recomputed, and
    that error is at least alpha / 4."""
    x = np.asarray(x, dtype=float)
    if x.size != dist.n or np.max(np.abs(x)) > 1.0:
        return "adversary is not a point of the cube"
    errs = dense_weights(est) @ x - np.array([x[list(p.target)].mean() for p in dist.pairs])
    ref = float(pair_probs(dist) @ (errs * errs))
    if not math.isclose(achieved, ref, rel_tol=ROUND_TOL, abs_tol=1e-15):
        return f"adversary error {achieved!r} != recomputed {ref!r}"
    if ref < alpha / 4.0 * (1.0 - ROUND_TOL):
        return f"adversary error {ref!r} below alpha/4 = {alpha / 4.0!r}"
    return None
