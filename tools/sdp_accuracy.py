"""Per-call accuracy of ``sdp_inf_solve`` on the benchmark's problem shapes.

Usage::

    python tools/sdp_accuracy.py <src dir>

It imports ``wcmean`` from ``<src dir>`` (the ``src`` directory of a
checkout), so running it on two checkouts compares their solvers on the same
instances.  For each shape it records the loss matrices of the l2 fits of
seeds 0 and 1 (t_max = 40, the default doubling), at every eigensolve.  No
SDP solve steers that path, so every checkout sees the same matrices.  Each
matrix is solved at eps = 0.01 from two seeded starts, as the OGD loop
calls the solver, and each value is compared with the upper end U of a tight
bracket [L, U] on the SDP value computed here with numpy alone:

* L = <M, X> for X = V^T V from a Riemannian ascent with Barzilai-Borwein
  steps, run until its linearised gap is below 1e-13 of the objective;
* U = <M, X> + n lambda_max(M - Diag(diag(M X)))^+, a bound valid for any X.

Printed per shape: the calls, the median and max shortfall 1 - value / U,
the mean solver iterations per call (``PsdAssignment.sweeps``), the median
milliseconds per call and the widest bracket (U - L) / U.  It takes about
4 s on a 2-core machine.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

EPS = 0.01
T_MAX = 40
SEEDS = (0, 1)


def shapes():
    from wcmean import collectors

    return {
        "importance": lambda s: collectors.gen_importance(n=50, split=25, m=150, seed=s)[0],
        "snowball": lambda s: collectors.gen_snowball(n=50, k=25, m=150, seed=s)[0],
        "selective": lambda s: collectors.gen_selective(n=32, windows=(1, 2, 4, 8, 16)),
        "wide": lambda s: collectors.gen_importance(n=200, split=100, m=100, seed=s)[0],
    }


def fit_matrices(dist, seed: int) -> list:
    """The loss matrices an l2 fit hands to its eigensolver, in order."""
    from wcmean import optimizer

    seen = []
    solve = optimizer.top_eigen

    def record(M):
        seen.append(M)
        return solve(M)

    optimizer.top_eigen = record
    try:
        optimizer.run_with_doubling(dist, optimizer.OgdConfig(regime="l2", t_max=T_MAX, seed=seed))
    finally:
        optimizer.top_eigen = solve
    return seen


def bracket(dense: np.ndarray, gap: float = 1e-13, cap: int = 20_000) -> tuple[float, float]:
    """[L, U] on max <M, X> over PSD X with unit diagonal (see the module)."""
    n = dense.shape[0]
    if not dense.any():
        return 0.0, 0.0
    rank = math.ceil(math.sqrt(2 * n)) + 1
    V = np.random.default_rng(12345).standard_normal((rank, n))
    V /= np.linalg.norm(V, axis=0)
    live = dense.any(axis=0)
    alpha = 1.0 / float(dense.diagonal().max())
    best, best_V = -math.inf, V
    previous = None
    for _ in range(cap):
        W = V @ dense
        dots = np.sum(V * W, axis=0)
        value = float(dots.sum())
        if value > best:
            best, best_V = value, V
        if float(np.linalg.norm(W, axis=0).sum()) - value <= gap * value:
            break
        R = W - V * dots
        if previous is not None:
            s, y = V - previous[0], R - previous[1]
            sy = abs(float(np.sum(s * y)))
            if sy > 0.0:
                alpha = float(np.sum(s * s)) / sy
        previous = V, R
        step = V + alpha * R
        V = np.where(live, step / np.linalg.norm(step, axis=0), V)
    MX = dense @ (best_V.T @ best_V)
    lower = float(np.trace(MX))
    lam = float(np.linalg.eigvalsh(dense - np.diag(np.diag(MX)))[-1])
    return lower, lower + n * max(lam, 0.0)


def measure(make) -> dict:
    from wcmean.subproblems import SdpConvergenceError, sdp_inf_solve

    shortfalls, iterations, ms, widths = [], [], [], []
    calls = 0
    for seed in SEEDS:
        for k, M in enumerate(fit_matrices(make(seed), seed)):
            lower, upper = bracket(M.dense)
            widths.append((upper - lower) / upper if upper > 0 else 0.0)
            for start in (k, k + 1000):
                tic = time.perf_counter()
                try:
                    res = sdp_inf_solve(M, EPS, np.random.default_rng(start))
                except SdpConvergenceError as exc:
                    res = exc.assignment
                ms.append((time.perf_counter() - tic) * 1e3)
                calls += 1
                shortfalls.append(1.0 - res.objective / upper if upper > 0 else 0.0)
                iterations.append(res.sweeps)
    return {
        "calls": calls,
        "median": statistics.median(shortfalls),
        "max": max(shortfalls),
        "iterations": statistics.fmean(iterations),
        "ms": statistics.median(ms),
        "bracket": max(widths),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the wcmean package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import wcmean

    print(f"wcmean from {Path(wcmean.__file__).parent}", file=sys.stderr)
    print(f"{'shape':<11} {'calls':>5} {'median':>9} {'max':>9} {'iters':>6} {'ms':>6} {'bracket':>8}")
    for name, make in shapes().items():
        r = measure(make)
        print(f"{name:<11} {r['calls']:>5} {r['median']:>9.2e} {r['max']:>9.2e} "
              f"{r['iterations']:>6.1f} {r['ms']:>6.3f} {r['bracket']:>8.1e}")


if __name__ == "__main__":
    main()
