"""The benchmark's workloads and one round of each.

A round makes the calls ``wcmean experiment`` makes for one table: the
process generator, both ``run_with_doubling`` fits, the baselines and the
table cells.  It adds an estimator JSON round trip through the files
``wcmean optimize`` writes, and on ``selective`` the ``wcmean lowerbound``
certificate and adversary.  Every call goes through the module attribute,
so that the tracing shims see it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wcmean import collectors, core, experiments, lowerbound, optimizer
from wcmean.baselines import GroupStructure
from wcmean.subproblems import SdpConvergenceError

import checks

OGD_COLUMNS = {"ogd_l2": core.L2, "ogd_linf": core.LINF}
FIXED_ROWS = ("constant", "intergroup", "intragroup", "spatial")

# the program's default subproblem accuracy, used by every workload
EPS = 0.01
# inputs per run: the fixed probe instance and INSTANCES - 1 seeded ones
INSTANCES = 3

# the selective process searched exhaustively, with the windows that fit it
# (2w <= n): 2^18 subsets take a tenth of a second, where the search's cap
# of n = 22 would take three and crowd the table out of the round
LB_N = 18
LB_WINDOWS = (1, 2, 4, 8)


@dataclass(frozen=True)
class Instance:
    """Inputs one round works on, all made by the program's generators."""

    dist: core.SampleTargetDistribution
    groups: GroupStructure | None = None
    points: np.ndarray | None = None
    split: int | None = None
    lb_dist: core.SampleTargetDistribution | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Instance]
    columns: tuple[str, ...]
    rows: tuple[str, ...]
    # OGD iterations per doubling attempt, per regime
    t_max: dict
    # per-regime p_init; None keeps the program's default 1/n
    p_init: dict = field(default_factory=dict)


def _importance(n: int, m: int) -> Callable[[int], Instance]:
    def make(seed: int) -> Instance:
        split = n // 2
        dist, gs = collectors.gen_importance(n=n, split=split, m=m, seed=seed)
        return Instance(dist, groups=gs, split=split)

    return make


def _snowball(m: int, cloud: int, pool: int) -> Callable[[int], Instance]:
    """Snowball samples on one fixed point cloud: the generator draws
    ``pool`` pairs on cloud ``cloud``, and the seed picks ``m`` of them.

    A fresh cloud per seed would move the optimum by a quarter and the
    doubling scheme's accepted radius with it, so that seeds would differ
    in the work done, not in how fast it is done."""

    def make(seed: int) -> Instance:
        drawn, points = collectors.gen_snowball(n=50, k=25, m=pool, seed=cloud)
        keep = np.sort(np.random.default_rng(seed).choice(pool, size=m, replace=False))
        dist = core.SampleTargetDistribution(drawn.n, tuple(drawn.pairs[i] for i in keep))
        return Instance(dist, points=points)

    return make


def _selective(seed: int) -> Instance:
    """The selective process is exact, without randomness: the seed reaches
    only the OGD and cell rngs, through ``run_round``."""
    dist = collectors.gen_selective()
    return Instance(dist, lb_dist=collectors.gen_selective(n=LB_N, windows=LB_WINDOWS))


WORKLOADS = {
    w.name: w
    for w in (
        # the importance table: l2 fit and its block power iteration dominate
        Workload(
            "importance",
            _importance(50, 150),
            ("reweighting", "subgroup", "ogd_linf", "ogd_l2"),
            ("constant", "intergroup", "intragroup", "worst_linf", "worst_l2"),
            t_max={"l2": 80, "linf": 80},
        ),
        # the snowball table: Python generator, large samples, linf SDP share
        Workload(
            "snowball",
            _snowball(150, cloud=1, pool=600),
            ("sample_mean", "ogd_linf", "ogd_l2"),
            ("spatial", "worst_linf", "worst_l2"),
            t_max={"l2": 80, "linf": 80},
        ),
        # the selective table: per-call overhead, skipped radii, lower bound
        Workload(
            "selective",
            _selective,
            ("selective_prediction", "ogd_linf", "ogd_l2"),
            ("worst_linf", "worst_l2"),
            t_max={"l2": 60, "linf": 60},
        ),
        # one l2 fit at n = 200, the only size where O(n^3) solves can cost more
        Workload(
            "wide",
            _importance(200, 100),
            ("reweighting", "ogd_linf", "ogd_l2"),
            ("constant", "worst_linf", "worst_l2"),
            t_max={"l2": 50, "linf": 10},
            # one linf attempt: the linf solver at n=200 is not what this workload is for
            p_init={"linf": 0.08},
        ),
    )
}


@dataclass
class RoundOutput:
    """Everything one round produced, plus its phase times in seconds."""

    instance: Instance
    estimators: dict
    fits: dict  # column -> (OgdTrace, p_final)
    cells: dict  # row -> column -> value
    reloaded: dict  # column -> estimator read back from JSON
    times: dict
    json_ms: list
    certificate: object = None
    adversary: tuple | None = None  # (DataValues, achieved error, baseline)
    adversary_cell: float | None = None
    lb_times: dict = field(default_factory=dict)


def data_vector(row: str, inst: Instance) -> np.ndarray:
    if row == "spatial":
        return experiments.spatial_values(inst.points)
    return experiments.synthetic_values(row, inst.dist.n, inst.split)


def run_round(w: Workload, seed: int, scratch: Path, recorder=None) -> RoundOutput:
    """One table: generate, fit, build baselines, fill cells, round-trip JSON."""
    clock = time.perf_counter
    started = clock()
    inst = w.make(seed)
    setup = clock() - started
    dist = inst.dist

    estimators: dict = {}
    fits: dict = {}
    fit_s = {core.L2: 0.0, core.LINF: 0.0}
    for col in w.columns:
        regime = OGD_COLUMNS.get(col)
        if regime is None:
            estimators[col] = experiments.baseline_estimator(col, dist, inst.groups)
            continue
        cfg = optimizer.OgdConfig(
            regime=regime, eps=EPS, t_max=w.t_max[regime], p_init=w.p_init.get(regime), seed=seed
        )
        if recorder is not None:
            recorder.regime = regime
        tic = clock()
        est, trace, p_final = optimizer.run_with_doubling(dist, cfg)
        fit_s[regime] += clock() - tic
        if recorder is not None:
            recorder.regime = None
        estimators[col] = est
        fits[col] = (trace, p_final)

    cells: dict = {row: {} for row in w.rows}
    for row in w.rows:
        for col in w.columns:
            est = estimators[col]
            if row in FIXED_ROWS:
                cells[row][col] = float(experiments.fixed_data_error(est, dist, data_vector(row, inst)))
                continue
            rng = np.random.default_rng((seed, 1000 + w.columns.index(col), w.rows.index(row)))
            try:
                value = experiments.worst_case_cell(est, dist, row, EPS, rng)
            except SdpConvergenceError as exc:
                value = exc.assignment.objective
            cells[row][col] = float(value)

    reloaded: dict = {}
    json_ms: list = []
    for col, est in estimators.items():
        path = scratch / f"{w.name}-{col}.json"
        tic = clock()
        core.save_estimator_file(est, path)
        reloaded[col] = core.load_estimator_file(path)
        json_ms.append((clock() - tic) * 1e3)

    out = RoundOutput(inst, estimators, fits, cells, reloaded, {}, json_ms)
    if inst.lb_dist is not None:
        _lower_bound(inst, out, clock)

    run_s = clock() - started
    out.times = {
        "run_s": run_s,
        "setup_s": setup,
        "fit_l2_s": fit_s[core.L2],
        "fit_linf_s": fit_s[core.LINF],
        "eval_s": run_s - setup - fit_s[core.L2] - fit_s[core.LINF],
    }
    return out


def _lower_bound(inst: Instance, out: RoundOutput, clock) -> None:
    """``wcmean lowerbound --baseline selective_prediction`` on the small
    selective process: exhaustive certificate, adversary, and the
    adversary's fixed-data cell."""
    lb = inst.lb_dist
    base = experiments.baseline_estimator("selective_prediction", lb)
    tic = clock()
    cert = lowerbound.best_S_bruteforce(lb)
    search_s = clock() - tic
    tic = clock()
    x, achieved = lowerbound.adversarial_values(lb, cert.subset, lowerbound.semilinear_callable(base, lb))
    adversary_ms = (clock() - tic) * 1e3
    out.certificate = cert
    out.adversary = (x, achieved, base)
    out.adversary_cell = float(experiments.fixed_data_error(base, lb, x))
    out.lb_times = {
        "lowerbound.best_S_bruteforce_s": search_s,
        "lowerbound.subset_pairs_per_s": (2.0**lb.n) * lb.m / search_s,
        "lowerbound.adversarial_values_ms": adversary_ms,
    }


def same_outputs(a: RoundOutput, b: RoundOutput) -> bool:
    """Two rounds on the same inputs gave bit-identical tables and fits."""
    if a.cells != b.cells or a.instance.dist != b.instance.dist:
        return False
    for col, (trace, p) in a.fits.items():
        other, q = b.fits[col]
        if p != q or trace.best_value != other.best_value or trace.notes != other.notes:
            return False
    return all(a.estimators[c].weights == b.estimators[c].weights for c in a.estimators)


# seed of instance 0, the same in every run; its outputs also get the
# solver-accuracy checks, which fail the same way in every run
PROBE_SEED = 0


def instance_seed(seed: int, k: int) -> int:
    """Seed of the run's k-th instance.  Instance 0 is the probe; the others
    are made from the run's seed, and runs with distinct seeds share none."""
    return PROBE_SEED if k == 0 else 1 + seed * (INSTANCES - 1) + (k - 1)


def verify(w: Workload, out: RoundOutput, accuracy: bool) -> tuple[list, dict]:
    """Check one round's outputs against the independent computations.

    Returns the list of (operation, failure reason or None) and the
    reference values: the dense l2 value and the SDP bracket per column.
    With ``accuracy`` set, the checks that rest on the solvers meeting
    their (1 + eps/10) promise are added, named ``accuracy:...``: the side
    of each worst-case cell below its reference, and an accepted fit's
    value against p.  Their SDP brackets are then closed to 1e-5, far
    inside eps/10; without them 1e-3 suffices, as every bracket encloses
    the SDP value whatever its width.
    """
    inst, dist, eps = out.instance, out.instance.dist, EPS
    ops: list = []
    refs: dict = {}
    for col in w.columns:
        M = checks.loss_gram(out.estimators[col], dist)
        refs[col] = {"l2": checks.l2_value(M)}
        if "worst_linf" in w.rows:
            refs[col]["linf"] = checks.sdp_bracket(M, 1e-5 if accuracy else 1e-3)
    for row in w.rows:
        for col in w.columns:
            cell = out.cells[row][col]
            name = f"{row}/{col}"
            if row in FIXED_ROWS:
                ops.append((name, checks.check_fixed_cell(cell, out.estimators[col], dist, data_vector(row, inst))))
            elif row == "worst_l2":
                ops.append((name, checks.check_l2_upper(cell, refs[col]["l2"])))
                if accuracy:
                    ops.append((f"accuracy:{name}", checks.check_l2_accuracy(cell, refs[col]["l2"], eps)))
            else:
                ops.append((name, checks.check_linf_upper(cell, refs[col]["linf"])))
                if accuracy:
                    ops.append((f"accuracy:{name}", checks.check_linf_accuracy(cell, refs[col]["linf"], eps)))
    baselines = [c for c in w.columns if c not in OGD_COLUMNS]
    for col, (trace, p) in out.fits.items():
        regime = OGD_COLUMNS[col]
        ops.append((f"fit/{col}", checks.check_fit(out.estimators[col], dist, regime, p)))
        if accuracy:
            value = refs[col]["l2"] if regime == core.L2 else refs[col]["linf"][1]
            ops.append((f"accuracy:fit/{col}", checks.check_fit_value(value, p, eps, trace.notes)))
        row = f"worst_{regime}"
        others = {b: out.cells[row][b] for b in baselines}
        ops.append((f"dominance/{col}", checks.check_dominance(out.cells[row][col], others, eps)))
    for col, est in out.estimators.items():
        ops.append((f"json/{col}", checks.check_round_trip(est, out.reloaded[col])))
    if out.certificate is not None:
        x, achieved, base = out.adversary
        ops.append(("certificate", checks.check_certificate(out.certificate, inst.lb_dist)))
        ops.append(("adversary", checks.check_adversary(
            x.values, achieved, out.certificate.alpha, base, inst.lb_dist)))
        ops.append(("adversary_cell", checks.check_fixed_cell(
            out.adversary_cell, base, inst.lb_dist, x.values)))
    return ops, refs
