"""One sha256 over a fixed set of fits, tables and a lower bound.

Usage::

    python tools/fit_digest.py <src dir>               # the fixed set below
    python tools/fit_digest.py <src dir> --table-size  # the tables at full size
    python tools/fit_digest.py <src dir> --cli         # files the CLI writes

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

The fixed set prints a second line, ``distributions <sha256>``: a digest
of the pairs and probabilities of every distribution it generates (the 10
fitted, the two seeded tables' at m = 300 and the lower bound's), each also
after ``save_distribution_file`` and ``load_distribution_file``.  So a change
to how distributions are built or read shows even where no fit moves.

Hashed: estimator arrays, every ``OgdTrace`` field but ``elapsed_ms`` (the
attempt records included), table cells, estimators and provenance without
``runtime_s``, and the certificate with its adversary.  Floats are hashed by
their exact hex form, so a value's Python or numpy type does not matter.

``--cli`` digests the files of a ``wcmean generate``, ``optimize`` and
``evaluate`` session instead (under a second), run in a temporary directory
so that the paths they record are relative.  The importance process
(m = 150, a first group of 10 of 50) is evaluated with its metadata for an
l2 OGD estimator file and the subgroup baseline, on every fixed row and
both worst cases.  A snowball process, which has no groups, is evaluated
for the sample mean on ``intergroup``, +1 on its first half.  Every file is
hashed by its bytes but the trace CSV, which holds wall times.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

# the selective process of the fixed set's lower-bound certificate
LOWER_BOUND = {"n": 18, "windows": (1, 2, 4, 8)}


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


def fit_processes() -> list:
    """(name, seed, distribution) per process the fixed set fits, in order."""
    from wcmean import collectors, experiments

    processes = {
        "importance": lambda s: collectors.gen_importance(
            **experiments.IMPORTANCE_PARAMS, m=150, seed=s)[0],
        "snowball": lambda s: collectors.gen_snowball(
            **experiments.SNOWBALL_PARAMS, m=150, seed=s)[0],
        "wide": lambda s: collectors.gen_importance(n=200, split=100, m=100, seed=s)[0],
    }
    fits = [(name, seed, make(seed)) for name, make in processes.items() for seed in range(3)]
    fits.append(("selective", 0, collectors.gen_selective(**experiments.SELECTIVE_PARAMS)))
    return fits


def fixed_set(h) -> Counter:
    from wcmean import baselines, collectors, experiments, lowerbound, optimizer

    *seeded, selective = fit_processes()
    runs = [
        (name, seed, dist, cfg)
        for name, seed, dist in seeded
        for cfg in ({"t_max": 60}, {"t_max": 30, "p_doublings_max": 1})
    ]
    runs.append((*selective, {"t_max": 60}))
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
    lb = collectors.gen_selective(**LOWER_BOUND)
    cert = lowerbound.best_S_bruteforce(lb)
    base = baselines.baseline_estimator("selective_prediction", lb)
    x, achieved = lowerbound.adversarial_values(
        lb, cert.subset, lowerbound.semilinear_callable(base, lb))
    feed(h, (cert, x.values, achieved))
    return notes


def distributions(h) -> None:
    """Hash the pairs and probabilities of every distribution the fixed set
    generates, and of each one written and read back."""
    from wcmean import collectors, core, experiments

    dists = [dist for _, _, dist in fit_processes()]
    dists += [
        collectors.gen_importance(**experiments.IMPORTANCE_PARAMS, m=300, seed=1)[0],
        collectors.gen_snowball(**experiments.SNOWBALL_PARAMS, m=300, seed=1)[0],
        collectors.gen_selective(**LOWER_BOUND),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dist.json"
        for dist in dists:
            core.save_distribution_file(dist, path)
            for d in (dist, core.load_distribution_file(path)):
                feed(h, (d.n, d.pairs, d.probs))


def table_size(h) -> None:
    from wcmean import experiments

    for seed in (0, 1):
        for name in experiments.EXPERIMENTS:
            feed_table(h, experiments.run_experiment(name, seed=seed, m=2000, t_max=1000))


def cli_session(h) -> None:
    from click.testing import CliRunner
    from wcmean.cli import main

    runner = CliRunner()

    def run(*args: str) -> None:
        result = runner.invoke(main, list(args))
        if result.exit_code != 0:
            raise RuntimeError(f"wcmean {' '.join(args)} exited {result.exit_code}: {result.output}")

    datasets = ("constant", "intergroup", "intragroup", "worst-linf", "worst-l2")
    with runner.isolated_filesystem():
        run("generate", "importance", "--split", "10", "--m", "150", "--seed", "1", "--out", "imp.json")
        run("optimize", "--dist", "imp.json", "--regime", "l2", "--t-max", "40", "--out", "ogd.json")
        run("evaluate", "--dist", "imp.json", "--estimator", "ogd.json", "--baseline", "subgroup",
            *(arg for d in datasets for arg in ("--dataset", d)), "--out", "imp.csv")
        run("generate", "snowball", "--m", "150", "--seed", "1", "--out", "snow.json")
        run("evaluate", "--dist", "snow.json", "--baseline", "sample_mean",
            "--dataset", "intergroup", "--out", "snow.csv")
        for path in sorted(Path().iterdir()):
            if not path.name.endswith(".trace.csv"):
                h.update(path.name.encode())
                h.update(path.read_bytes())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the wcmean package")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--table-size", action="store_true",
                       help="digest the three tables at m = 2000, t_max = 1000, seeds 0 and 1")
    which.add_argument("--cli", action="store_true",
                       help="digest the files of a generate, optimize and evaluate session")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import wcmean

    h = hashlib.sha256()
    notes = (table_size if args.table_size else cli_session if args.cli else fixed_set)(h)
    print(f"wcmean from {Path(wcmean.__file__).parent}", file=sys.stderr)
    if notes:
        print(f"fits by last note: {dict(sorted(notes.items()))}", file=sys.stderr)
    print(h.hexdigest())
    if not (args.table_size or args.cli):
        dist_hash = hashlib.sha256()
        distributions(dist_hash)
        print(f"distributions {dist_hash.hexdigest()}")


if __name__ == "__main__":
    main()
