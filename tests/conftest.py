"""Shared test helpers: tiny distribution builders and brute-force oracles.

The oracles here are deliberately independent of the library internals:
dense eigensolver for the l2 worst case, exhaustive sign enumeration for
the hypercube worst case, and a grid search for the ball projection.
"""

import functools

import numpy as np
import pytest

from wcmean import experiments, optimizer
from wcmean.core import IndexPair, SampleTargetDistribution
from wcmean.subproblems import SdpConvergenceError, sdp_inf_solve

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def make_dist(n, pairs):
    """Build a distribution from raw (sample, target) index lists."""
    return SampleTargetDistribution(
        n, tuple(IndexPair(tuple(a), tuple(b)) for a, b in pairs)
    )


def random_dist(rng, n, m, allow_empty=False, full_targets=False):
    """Random distribution: each index joins the sample with probability 1/2."""
    pairs = []
    for _ in range(m):
        while True:
            sample = [j for j in range(n) if rng.random() < 0.5]
            if sample or allow_empty:
                break
        if full_targets:
            target = list(range(n))
        else:
            while True:
                target = [j for j in range(n) if rng.random() < 0.5]
                if target:
                    break
        pairs.append((sample, target))
    return make_dist(n, pairs)


def dense_lambda_max(M_dense):
    """Dense-eigensolver oracle for the top eigenvalue."""
    return float(np.linalg.eigvalsh(M_dense)[-1])


def sdp_bracket(M):
    """[L, U] on max <M, X> over PSD X with unit diagonal: L = <M, X> for X
    from a tight ``sdp_inf_solve``, and U = <M, X> + n lambda_max(M -
    Diag(diag(M X)))^+, the dual bound, which holds for any X."""
    X = sdp_inf_solve(M, 1e-10, np.random.default_rng(0), max_sweeps=10_000).dense()
    MX = M.dense @ X
    lower = float(np.trace(MX))
    return lower, lower + M.dim * max(dense_lambda_max(M.dense - np.diag(np.diag(MX))), 0.0)


def hypercube_max(M_dense):
    """Exhaustive max of x^T M x over x in {-1, +1}^n (n <= 16)."""
    n = M_dense.shape[0]
    if n > 16:
        raise ValueError("hypercube oracle limited to n <= 16")
    # fix x_0 = +1: the quadratic form is sign-symmetric
    count = 1 << (n - 1)
    bits = (np.arange(count)[:, None] >> np.arange(n - 1)) & 1
    X = np.hstack([np.ones((count, 1)), 2.0 * bits - 1.0])
    return float(np.max(np.einsum("ij,jk,ik->i", X, M_dense, X)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def capped_sdp(monkeypatch):
    """Every SDP solve of the OGD loop and of the table cells hits its sweep
    cap: it raises SdpConvergenceError carrying a real solve's assignment.
    Returns the objectives carried out of the cells' solves, in call order."""
    carried = []

    def capped(M, eps, rng, log=None):
        assignment = sdp_inf_solve(M, eps, rng)
        if log is not None:
            log.append(assignment.objective)
        raise SdpConvergenceError(assignment)

    monkeypatch.setattr(optimizer, "sdp_inf_solve", capped)
    monkeypatch.setattr(experiments, "sdp_inf_solve", functools.partial(capped, log=carried))
    return carried
