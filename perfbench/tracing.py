"""Spans recorded from outside the program, by wrapping module attributes.

The program looks up its collaborators as module globals at call time, so
replacing ``wcmean.optimizer.top_eigen`` with a timing shim intercepts every
call the OGD loop makes to it and no other.  Spans stay in memory;
``layers.py`` turns them into per-layer metrics after the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (module, attribute, span name): the names the OGD loop and the table
# cells call through, plus the loss-matrix build behind every cell
TRACED = (
    ("wcmean.optimizer", "top_eigen", "top_eigen"),
    ("wcmean.optimizer", "sdp_inf_solve", "sdp_inf_solve"),
    ("wcmean.optimizer", "loss_factor", "loss_factor"),
    ("wcmean.optimizer", "ball_geometry", "ball_geometry"),
    ("wcmean.optimizer", "estimator_from_dense", "estimator_from_dense"),
    ("wcmean.experiments", "worst_case_cell", "worst_case_cell"),
    ("wcmean.experiments", "fixed_data_error", "fixed_data_error"),
    ("wcmean.experiments", "baseline_estimator", "baseline_estimator"),
    ("wcmean.core", "build_loss_matrix", "build_loss_matrix"),
    ("wcmean.experiments", "build_loss_matrix", "build_loss_matrix"),
    ("wcmean.subproblems", "build_loss_matrix", "build_loss_matrix"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    regime: str | None  # the fit the span ran under, None outside fits
    attempt: int  # doubling attempt counter at the time of the call
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs timing shims on the traced names and collects their spans.

    ``regime`` is set by the workload around each fit, so that spans can be
    split by regime; each ``ball_geometry`` call opens a new attempt.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.regime: str | None = None
        self.attempt = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        for mod_name, attr, span_name in TRACED:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._shim(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _shim(self, name, fn):
        def shim(*args, **kwargs):
            if name == "ball_geometry":
                self.attempt += 1
            info: dict = {}
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                info["raised"] = type(exc).__name__
                self.spans.append(Span(name, start, time.perf_counter(), self.regime, self.attempt, info))
                raise
            end = time.perf_counter()
            if name == "top_eigen":
                info["iterations"] = out.iterations
            elif name == "ball_geometry":
                # the slack below which the OGD loop skips the radius
                info["feasible"] = out.squared_slack >= -1e-9
            elif name == "worst_case_cell":
                info["row"] = args[2] if len(args) > 2 else kwargs["row"]
            self.spans.append(Span(name, start, end, self.regime, self.attempt, info))
            return out

        return shim

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans
