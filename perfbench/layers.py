"""Per-layer metrics from the spans of traced rounds.

Each metric is computed per round; the run reports the mean over its
instances of each instance's median over rounds.  ``_s`` metrics total a
layer's time in one round, ``_ms`` metrics are the median of one call.
"""

from __future__ import annotations

import statistics

from workloads import OGD_COLUMNS

# the per-layer metrics every workload reports, with their units
UNITS = {
    "optimizer.fit_l2_s": "s",
    "optimizer.fit_linf_s": "s",
    "experiments.eval_s": "s",
    "subproblems.top_eigen_s": "s",
    "subproblems.top_eigen_ms": "ms",
    "subproblems.top_eigen_iters": "count",
    "subproblems.top_eigen_calls": "count",
    "subproblems.sdp_inf_solve_s": "s",
    "subproblems.sdp_inf_solve_ms": "ms",
    "subproblems.sdp_inf_solve_calls": "count",
    "subproblems.sdp_inf_solve_capped": "count",
    "core.loss_factor_s": "s",
    "core.loss_factor_ms": "ms",
    "optimizer.attempts_l2": "count",
    "optimizer.attempts_linf": "count",
    "optimizer.skipped_l2": "count",
    "optimizer.skipped_linf": "count",
    "optimizer.iterations_l2": "count",
    "optimizer.iterations_linf": "count",
    "optimizer.iter_ms_l2": "ms",
    "optimizer.iter_ms_linf": "ms",
    "optimizer.step_self_ms_l2": "ms",
    "optimizer.step_self_ms_linf": "ms",
    "core.build_loss_matrix_ms": "ms",
    "core.estimator_from_dense_ms": "ms",
    "core.estimator_json_ms": "ms",
    "baselines.build_ms": "ms",
    "experiments.worst_l2_cell_ms": "ms",
    "experiments.worst_linf_cell_ms": "ms",
    "experiments.fixed_cell_ms": "ms",
}

SUBPROBLEM = {"l2": "top_eigen", "linf": "sdp_inf_solve"}


def instance_mean(per_round: list, index: list, key) -> float:
    """Mean over instances of each instance's median over its rounds;
    ``index[i]`` is the instance round ``i`` ran."""
    by_instance: dict = {}
    for k, values in zip(index, per_round):
        by_instance.setdefault(k, []).append(key(values))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def _median_ms(spans) -> float:
    return statistics.median(s.seconds for s in spans) * 1e3 if spans else 0.0


def _step_self_ms(spans, regime: str) -> float:
    """Median over iterations of the time between two loss builds, less the
    first build and its subproblem: gradient, projection and bookkeeping.
    The last iteration of each attempt has no next build and is left out."""
    loop = [s for s in spans if s.regime == regime and s.name in ("loss_factor", SUBPROBLEM[regime])]
    selfs = []
    for (lf, sub), (nxt, _) in zip(zip(loop[::2], loop[1::2]), zip(loop[2::2], loop[3::2])):
        if lf.attempt == nxt.attempt:
            selfs.append(nxt.start - lf.start - lf.seconds - sub.seconds)
    return statistics.median(selfs) * 1e3 if selfs else 0.0


def round_values(out, spans) -> dict:
    """Per-layer values of one traced round, from its output and spans."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    eig = by.get("top_eigen", [])
    sdp = by.get("sdp_inf_solve", [])
    lf = by.get("loss_factor", [])
    geo = by.get("ball_geometry", [])
    cells = by.get("worst_case_cell", [])
    vals = {
        # the round's split of run_s: both run_with_doubling calls, and the
        # rest (baselines, cells, JSON round trip, lower bound)
        "optimizer.fit_l2_s": out.times["fit_l2_s"],
        "optimizer.fit_linf_s": out.times["fit_linf_s"],
        "experiments.eval_s": out.times["eval_s"],
        "subproblems.top_eigen_s": sum(s.seconds for s in eig),
        "subproblems.top_eigen_ms": _median_ms(eig),
        "subproblems.top_eigen_iters": statistics.fmean(s.info["iterations"] for s in eig) if eig else 0.0,
        "subproblems.top_eigen_calls": len(eig),
        "subproblems.sdp_inf_solve_s": sum(s.seconds for s in sdp),
        "subproblems.sdp_inf_solve_ms": _median_ms(sdp),
        "subproblems.sdp_inf_solve_calls": len(sdp),
        "subproblems.sdp_inf_solve_capped": sum(s.info.get("raised") == "SdpConvergenceError" for s in sdp),
        "core.loss_factor_s": sum(s.seconds for s in lf),
        "core.loss_factor_ms": _median_ms(lf),
        "core.build_loss_matrix_ms": _median_ms(by.get("build_loss_matrix", [])),
        "core.estimator_from_dense_ms": _median_ms(by.get("estimator_from_dense", [])),
        "core.estimator_json_ms": statistics.median(out.json_ms),
        "baselines.build_ms": _median_ms(by.get("baseline_estimator", [])),
        "experiments.worst_l2_cell_ms": _median_ms([s for s in cells if s.info["row"] == "worst_l2"]),
        "experiments.worst_linf_cell_ms": _median_ms([s for s in cells if s.info["row"] == "worst_linf"]),
        "experiments.fixed_cell_ms": _median_ms(by.get("fixed_data_error", [])),
    }
    for col, regime in OGD_COLUMNS.items():
        mine = [s for s in geo if s.regime == regime]
        vals[f"optimizer.attempts_{regime}"] = sum(s.info["feasible"] for s in mine)
        vals[f"optimizer.skipped_{regime}"] = sum(not s.info["feasible"] for s in mine)
        vals[f"optimizer.iterations_{regime}"] = sum(
            s.regime == regime for s in by.get(SUBPROBLEM[regime], [])
        )
        vals[f"optimizer.iter_ms_{regime}"] = statistics.median(out.fits[col][0].elapsed_ms)
        vals[f"optimizer.step_self_ms_{regime}"] = _step_self_ms(spans, regime)
    vals.update(out.lb_times)
    return vals

