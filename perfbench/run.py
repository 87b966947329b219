"""Benchmark of the wcmean tables, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload importance --seed 1 --seconds 15 --trace 0

A run warms up on a short round, then fills the workload's table on each
of its instances and goes on cycling through them in whole rounds until
``--seconds`` have passed.  Instance 0 is the probe: its inputs are the
same in every run, and its outputs get every check, the solver-accuracy
ones included.  The other instances' inputs are made from ``--seed`` and
get every check that does not rest on the solvers' accuracy.  Each
instance's first round is checked; its later rounds must reproduce it bit
for bit.  A metric is the mean over instances of each instance's median
over its rounds.  ``--trace 1`` wraps the program's inner calls and reports
per-layer metrics in place of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results,
with every metric, each operation and the machine facts, go to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "l2_error": "1",
    "linf_error": "1",
    "peak_rss_mb": "MB",
}


def _limit_threads() -> int:
    """Cap BLAS and OpenMP at the cores this process may run on; must run
    before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def _machine(threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _end_to_end(times, index, refs, peak_rss_mb) -> dict:
    from layers import instance_mean

    out = {key: instance_mean(times, index, lambda t, key=key: t[key]) for key in ("run_s", "setup_s")}
    out["l2_error"] = statistics.fmean(r["ogd_l2"]["l2"] for r in refs)
    out["linf_error"] = statistics.fmean(r["ogd_linf"]["linf"][1] for r in refs)
    out["peak_rss_mb"] = peak_rss_mb
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    threads = _limit_threads()
    if not (SRC / "wcmean" / "__init__.py").is_file():
        print(f"error: no wcmean sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import wcmean

    if Path(wcmean.__file__).resolve().parent != (SRC / "wcmean").resolve():
        print(f"error: imported wcmean from {wcmean.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from tracing import Recorder
    from workloads import INSTANCES, PROBE_SEED, WORKLOADS, instance_seed, run_round, same_outputs, verify

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        run_round(dataclasses.replace(w, t_max={r: 2 for r in w.t_max}), PROBE_SEED, scratch)
        recorder = Recorder() if args.trace else None
        # each instance's first round is kept for the checks; later rounds
        # are compared with it and dropped, so memory stays flat
        firsts, times, index, traced = [], [], [], []
        same = True
        if recorder is not None:
            recorder.install()
        try:
            started = time.perf_counter()
            while len(times) < INSTANCES or time.perf_counter() - started < args.seconds:
                k = len(times) % INSTANCES
                out = run_round(w, instance_seed(args.seed, k), scratch, recorder)
                if len(firsts) < INSTANCES:
                    firsts.append(out)
                else:
                    same = same and same_outputs(firsts[k], out)
                times.append(out.times)
                index.append(k)
                if recorder is not None:
                    traced.append(layers.round_values(out, recorder.take()))
        finally:
            if recorder is not None:
                recorder.uninstall()
    # the program's peak, before the checks allocate their own matrices
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops, refs = [], []
    for k in range(INSTANCES):
        instance_ops, ref = verify(w, firsts[k], accuracy=k == 0)
        ops += [(f"{'probe' if k == 0 else f'run{k}'}:{n}", r) for n, r in instance_ops]
        refs.append(ref)
    ops.append(("rounds_identical", None if same else "a repeated round differs from its instance's first"))
    failures = [(n, r) for n, r in ops if r is not None]
    # the probe's solver-accuracy checks are the only failures a correct
    # program may show: they fail on fixed inputs, every run alike
    correct = all(n.startswith("probe:accuracy:") for n, _ in failures)

    e2e = _end_to_end(times, index, refs, peak_rss_mb)
    per_layer = {k: layers.instance_mean(traced, index, lambda r, k=k: r[k]) for k in traced[0]} if traced else {}
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in per_layer.items() if k in layers.UNITS}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    results = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(times),
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [{"op": n, "reason": r} for n, r in failures],
        "end_to_end": e2e,
        "per_layer": per_layer,
        "round_times": times,
        "instance_seeds": [instance_seed(args.seed, k) for k in range(INSTANCES)],
        "round_instances": index,
        "cells": [r.cells for r in firsts],
        "p_final": [{c: p for c, (_, p) in r.fits.items()} for r in firsts],
        "machine": _machine(threads),
    }
    path = OUT / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=2) + "\n")

    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
