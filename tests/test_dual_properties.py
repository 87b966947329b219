"""Property test of the unit-diagonal dual bound the linf doubling reads.

``_dual_point(..., rescaled=True)`` returns g(X') for the unit-diagonal
X' = D^{-1/2} X D^{-1/2}, D = diag(X), as a second right-hand side of the
solves behind g(X).  It must be the bound ``l2_dual_bound`` computes at X'
directly, and like g at any PSD point it must lie below <M(a), X'> for
every semilinear a.  It is not tested against the linf OGD's f_t: that is
the SDP solver's reported value, which its stopping rule lets fall below
the SDP value.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dual import bound_cases, random_trace_n
from wcmean.core import build_loss_matrix, estimator_from_dense
from wcmean.optimizer import _dual_point, _sample_batches, l2_dual_bound

CASES = bound_cases()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 3.0),
)
def test_rescaled_bound_is_the_unit_diagonal_dual(name, seed, spread):
    dist = CASES[name]
    rng = np.random.default_rng(seed)
    # a positive definite point whose diagonal spans up to a factor e^(4 spread)
    e = np.exp(rng.uniform(-spread, spread, dist.n))
    X = random_trace_n(rng, dist.n) * np.outer(e, e)
    value, _, unit = _dual_point(dist, _sample_batches(dist.sample_mask), X, rescaled=True)
    assert value == pytest.approx(l2_dual_bound(dist, X), rel=1e-12, abs=1e-300)
    d = 1.0 / np.sqrt(np.diag(X))
    unit_X = X * np.outer(d, d)
    ref = l2_dual_bound(dist, unit_X)
    assert abs(unit - ref) <= 1e-12 * abs(ref)
    for scale in (0.0, 0.3, 3.0):
        arr = np.where(dist.sample_mask, scale * rng.standard_normal((dist.m, dist.n)), 0.0)
        M = build_loss_matrix(estimator_from_dense(dist, arr), dist).dense
        assert unit <= float(np.sum(M * unit_X)) * (1 + 1e-12) + 1e-15
