"""One sha256 over a fixed set of fits, tables and a lower bound.

Usage::

    python tools/fit_digest.py <src dir>               # the fixed set below
    python tools/fit_digest.py <src dir> --table-size  # the tables at full size

It imports ``wcmean`` from ``<src dir>`` (the ``src`` directory of a
checkout), so running it on two checkouts compares their results: equal
digests mean the same numbers bit for bit, wall times aside.

The fixed set (3.5 s on a 2-core machine):

* 38 fits.  Both regimes on importance (n = 50, m = 150), snowball (m = 150)
  and wide importance (n = 200, m = 100) at seeds 0-2, each once with the
  default doubling at t_max = 60 and once at t_max = 30 with one doubling,
  which exhausts the cap on some; plus both regimes on the selective table's
  process at t_max = 60.
* The three ``run_experiment`` tables at m = 300, t_max = 100 and seed 1.
* The exhaustive lower-bound certificate of the selective process at n = 18
  and its adversary against selective prediction.

``--table-size`` digests the three tables at m = 2000, t_max = 1000 and seeds
0 and 1 instead (18 s on the same machine).

Hashed: estimator arrays, every ``OgdTrace`` field but ``elapsed_ms`` (the
attempt records included), table cells, estimators and provenance without
``runtime_s``, and the certificate with its adversary.  Floats are hashed by
their exact hex form, so a value's Python or numpy type does not matter.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def feed(h, value) -> None:
    """Hash a value by its content: arrays by dtype, shape and bytes, and
    containers and dataclasses element by element."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(b"dict")
        for key in sorted(value, key=str):
            h.update(str(key).encode())
            feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, (bool, np.bool_, str)) or value is None:
        h.update(repr(value).encode())
    elif isinstance(value, (int, np.integer)):
        h.update(f"int {int(value)}".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"float {float(value).hex()}".encode())
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def feed_estimator(h, est) -> None:
    feed(h, (est.n, est.support, est.values))


def feed_trace(h, trace) -> None:
    for f in dataclasses.fields(trace):
        if f.name != "elapsed_ms":
            h.update(f.name.encode())
            feed(h, getattr(trace, f.name))


def feed_table(h, result) -> None:
    feed(h, (result.name, result.rows, result.columns, result.cells))
    for name, est in result.estimators.items():
        h.update(name.encode())
        feed_estimator(h, est)
    feed(h, {k: v for k, v in result.provenance.items() if k != "runtime_s"})


def fixed_set(h) -> Counter:
    from wcmean import baselines, collectors, experiments, lowerbound, optimizer

    processes = {
        "importance": lambda s: collectors.gen_importance(
            **experiments.IMPORTANCE_PARAMS, m=150, seed=s)[0],
        "snowball": lambda s: collectors.gen_snowball(
            **experiments.SNOWBALL_PARAMS, m=150, seed=s)[0],
        "wide": lambda s: collectors.gen_importance(n=200, split=100, m=100, seed=s)[0],
    }
    runs = [
        (name, seed, make(seed), cfg)
        for name, make in processes.items()
        for seed in range(3)
        for cfg in ({"t_max": 60}, {"t_max": 30, "p_doublings_max": 1})
    ]
    selective = collectors.gen_selective(**experiments.SELECTIVE_PARAMS)
    runs.append(("selective", 0, selective, {"t_max": 60}))
    notes: Counter = Counter()
    for name, seed, dist, cfg in runs:
        for regime in ("l2", "linf"):
            est, trace, p = optimizer.run_with_doubling(
                dist, optimizer.OgdConfig(regime=regime, seed=seed, **cfg))
            feed(h, (name, seed, regime, sorted(cfg.items()), p))
            feed_estimator(h, est)
            feed_trace(h, trace)
            notes[trace.notes[-1]] += 1
    for name in experiments.EXPERIMENTS:
        feed_table(h, experiments.run_experiment(name, seed=1, m=300, t_max=100))
    lb = collectors.gen_selective(n=18, windows=(1, 2, 4, 8))
    cert = lowerbound.best_S_bruteforce(lb)
    base = baselines.baseline_estimator("selective_prediction", lb)
    x, achieved = lowerbound.adversarial_values(
        lb, cert.subset, lowerbound.semilinear_callable(base, lb))
    feed(h, (cert, x.values, achieved))
    return notes


def table_size(h) -> None:
    from wcmean import experiments

    for seed in (0, 1):
        for name in experiments.EXPERIMENTS:
            feed_table(h, experiments.run_experiment(name, seed=seed, m=2000, t_max=1000))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the wcmean package")
    parser.add_argument("--table-size", action="store_true",
                        help="digest the three tables at m = 2000, t_max = 1000, seeds 0 and 1")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import wcmean

    h = hashlib.sha256()
    notes = (table_size if args.table_size else fixed_set)(h)
    print(f"wcmean from {Path(wcmean.__file__).parent}", file=sys.stderr)
    if notes:
        print(f"fits by last note: {dict(sorted(notes.items()))}", file=sys.stderr)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
