"""The benchmark's per-layer view sees every traced call.

``perfbench/tracing.py`` times the program by replacing module attributes
such as ``wcmean.optimizer.top_eigen``.  A refactor that calls one of those
functions some other way would leave its span empty, and its per-layer
metric would read zero without any error.  One small importance round must
therefore record at least one span under every traced name.  The
doubling pauses a run whose ball binds for the dual ascent, and the run
then stops or continues; a reused run is not run again.  Each attempt
makes at most one run, so a feasible ``ball_geometry`` span is one attempt
that ran, and the per-layer counts must stay true counts of the work done.
"""

import dataclasses
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from conftest import random_dist  # noqa: E402

from wcmean import collectors, core, optimizer  # noqa: E402


def test_every_traced_name_records_a_span(tmp_path):
    full = workloads.WORKLOADS["importance"]
    small = dataclasses.replace(
        full, make=workloads._importance(10, 60), t_max={r: 5 for r in full.t_max}
    )
    recorder = tracing.Recorder()
    recorder.install()
    try:
        workloads.run_round(small, 0, tmp_path, recorder)
    finally:
        recorder.uninstall()
    recorded = {span.name for span in recorder.take()}
    traced = {span_name for _, _, span_name in tracing.TRACED}
    assert traced - recorded == set()


def fit_spans(monkeypatch, regime, t_max, dist=None, seed=0, **knobs):
    """The spans of one fit, the number of runs it started on a feasible
    radius, those stopped by the ascent included, and its attempt records."""
    if dist is None:
        dist, _ = collectors.gen_importance(n=50, split=25, m=150, seed=0)
    cfg = optimizer.OgdConfig(regime=regime, t_max=t_max, seed=seed, **knobs)
    run_single = optimizer._run_single
    started = []

    def counting(*args, **kwargs):
        out = run_single(*args, **kwargs)
        started.append(out[1].t.size)
        return out

    monkeypatch.setattr(optimizer, "_run_single", counting)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        recorder.regime = regime
        _, trace, _ = optimizer.run_with_doubling(dist, cfg)
    finally:
        recorder.uninstall()
    assert "ruled-out" in [rec.outcome for rec in trace.attempts]
    # the records count the iterations of every run started
    assert sum(rec.iterations for rec in trace.attempts) == sum(started)
    return recorder.take(), len(started), trace.attempts


def assert_attempts_that_ran(spans, started, records):
    # each attempt makes at most one run, so the feasible ball_geometry
    # spans are the runs started and the attempts that ran alike
    feasible = sum(s.info["feasible"] for s in spans if s.name == "ball_geometry")
    assert feasible == started == sum(rec.iterations > 0 for rec in records)


def test_l2_fit_spans_count_the_attempts_that_ran(monkeypatch):
    # optimizer.attempts_l2 counts feasible ball_geometry spans, and
    # optimizer.iterations_l2 counts top_eigen spans: each must count every
    # attempt that ran and every iteration run, a radius ruled out after
    # part of a run included, and a reused run in neither
    spans, started, records = fit_spans(monkeypatch, core.L2, 7)
    assert_attempts_that_ran(spans, started, records)
    assert sum(s.name == "top_eigen" for s in spans) == sum(rec.iterations for rec in records)


def test_linf_fit_spans_count_the_attempts_that_ran(monkeypatch):
    # the same for optimizer.attempts_linf and the sdp_inf_solve spans
    spans, started, records = fit_spans(monkeypatch, core.LINF, 7)
    assert_attempts_that_ran(spans, started, records)
    assert sum(s.name == "sdp_inf_solve" for s in spans) == sum(rec.iterations for rec in records)


def test_a_run_that_binds_and_continues_is_one_attempt(monkeypatch):
    # at p = 0.4 this l2 fit's ball binds, the ascent does not rule p out
    # and the run continues: one ball_geometry span and t_max top_eigen
    # spans for that attempt, as for any other
    dist = random_dist(np.random.default_rng(21), 6, 5)
    spans, started, records = fit_spans(
        monkeypatch, core.L2, 4, dist, eps=0.05, seed=3, p_init=0.05
    )
    continued = [rec for rec in records if rec.outcome == "rejected" and rec.dual_steps]
    assert [rec.p for rec in continued] == [0.4] and continued[0].iterations == 4
    assert_attempts_that_ran(spans, started, records)
    assert sum(s.name == "top_eigen" for s in spans) == sum(rec.iterations for rec in records)
