"""The benchmark's per-layer view sees every traced call.

``perfbench/tracing.py`` times the program by replacing module attributes
such as ``wcmean.optimizer.top_eigen``.  A refactor that calls one of those
functions some other way would leave its span empty, and its per-layer
metric would read zero without any error.  One small importance round must
therefore record at least one span under every traced name.
"""

import dataclasses
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


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
