"""Command-line interface.

Subcommands: generate (collection processes), optimize (OGD synthesis),
evaluate (error reports for estimators on datasets), experiment (full
benchmark tables), lowerbound (non-expansion certificates and adversarial
data).  All commands are deterministic under fixed flags and seed; the
only non-reproducible bytes are wall-clock fields (trace elapsed_ms,
provenance runtimes).

Exit codes: 0 success; 2 usage or parameter errors; 3 malformed input
files; 4 infeasible radius or solver non-convergence; 5 exhaustive-search
size limit exceeded.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .baselines import BASELINES, GroupStructure, baseline_estimator
from .collectors import gen_importance, gen_selective, gen_snowball
from .core import (
    L2,
    LINF,
    SchemaError,
    _load_json,
    _positive_float,
    fixed_data_error,
    load_distribution_file,
    load_estimator_file,
    save_distribution_file,
    save_estimator_file,
)
from .experiments import (
    EXPERIMENTS,
    IMPORTANCE_PARAMS,
    SELECTIVE_PARAMS,
    SNOWBALL_PARAMS,
    average_results,
    run_experiment,
    spatial_values,
    synthetic_values,
    worst_case_cell,
    write_experiment_csv,
)
from .lowerbound import (
    BruteForceSizeError,
    adversarial_values,
    best_S_bruteforce,
    check_non_expanding,
    semilinear_callable,
)
from .optimizer import (
    InfeasibleBallError,
    OgdConfig,
    run_with_doubling,
    trace_summary,
    write_trace_csv,
)
from .subproblems import SdpConvergenceError


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SchemaError as exc:
            _fail(3, f"[{exc.code}] {exc}")
        except (InfeasibleBallError, SdpConvergenceError) as exc:
            _fail(4, str(exc))
        except BruteForceSizeError as exc:
            _fail(5, str(exc))
        except ValueError as exc:
            _fail(2, str(exc))

    return wrapper


def _meta_path(out: Path) -> Path:
    return out.with_suffix(".meta.json")


def _write_json(data, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


@click.group()
@click.version_option(version=__version__, prog_name="wcmean")
def main():
    """Synthesize and evaluate worst-case optimal mean estimators."""


@main.command("generate")
@click.argument("process", type=click.Choice(["importance", "snowball", "selective"]))
@click.option("--out", type=click.Path(path_type=Path), required=True, help="Distribution JSON path.")
@click.option("--meta-out", type=click.Path(path_type=Path), default=None, help="Metadata JSON path (default: <out>.meta.json).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--m", "m", type=int, default=2000, show_default=True, help="Number of pairs (importance/snowball).")
@click.option("--n", "n", type=int, default=None, help=f"Population size (default {IMPORTANCE_PARAMS['n']}, selective {SELECTIVE_PARAMS['n']}).")
@click.option("--split", type=int, default=IMPORTANCE_PARAMS["split"], show_default=True, help="First-group size (importance).")
@click.option("--probs", nargs=2, type=float, default=IMPORTANCE_PARAMS["probs"], show_default=True, help="Group inclusion probabilities (importance).")
@click.option("--k", type=int, default=SNOWBALL_PARAMS["k"], show_default=True, help="Sample size (snowball).")
@click.option("--neighbors", type=int, default=SNOWBALL_PARAMS["num_neighbors"], show_default=True, help="Nearest-neighbor count (snowball).")
@click.option("--recruit", type=int, default=SNOWBALL_PARAMS["recruit"], show_default=True, help="Recruits per dequeued member (snowball).")
@click.option("--graph", type=click.Choice(["directed", "mutual"]), default="directed", show_default=True, help="Recruitment graph (snowball).")
@click.option("--traversal", type=click.Choice(["fifo", "rounds"]), default="fifo", show_default=True, help="Recruitment order (snowball).")
@click.option("--start-policy", "start_policy", type=click.Choice(["perdraw", "fixed"]), default="perdraw", show_default=True, help="Start vertex policy (snowball).")
@click.option("--stall", type=click.Choice(["fresh", "redraw"]), default="fresh", show_default=True, help="Stalled-growth policy (snowball).")
@click.option("--windows", default=",".join(map(str, SELECTIVE_PARAMS["windows"])), show_default=True, help="Comma-separated window lengths (selective).")
@click.option("--overlap", is_flag=True, help="Selective targets include the newest observed point.")
@handle_errors
def cmd_generate(process, out, meta_out, seed, m, n, split, probs, k, neighbors, recruit, graph, traversal, start_policy, stall, windows, overlap):
    """Generate a collection process and write it with sidecar metadata."""
    meta_out = meta_out if meta_out is not None else _meta_path(out)
    if n is None:
        defaults = {
            "importance": IMPORTANCE_PARAMS, "snowball": SNOWBALL_PARAMS, "selective": SELECTIVE_PARAMS
        }
        n = defaults[process]["n"]
    # params are the generator's keywords and, with the extras, the metadata
    if process == "importance":
        params = {"n": n, "split": split, "probs": probs, "m": m, "seed": seed}
        dist, gs = gen_importance(**params)
        extras = {
            "groups": [list(g) for g in gs.groups],
            "inclusion_prob": [float(p) for p in gs.inclusion_prob],
        }
    elif process == "snowball":
        params = {
            "n": n, "k": k, "num_neighbors": neighbors, "recruit": recruit, "m": m, "seed": seed,
            "graph": graph, "traversal": traversal, "start": start_policy, "stall": stall,
        }
        dist, points = gen_snowball(**params)
        extras = {"points": [[float(a), float(b)] for a, b in points]}
    else:
        try:
            params = {"n": n, "windows": [int(w) for w in windows.split(",") if w.strip()]}
        except ValueError:
            raise ValueError(f"cannot parse window list {windows!r}")
        dist = gen_selective(**params, overlap=overlap)
        extras = {"window_convention": "overlap" if overlap else "disjoint"}
    save_distribution_file(dist, out)
    _write_json({"process": process, **params, **extras}, meta_out)
    click.echo(f"wrote {out} ({dist.m} pairs) and {meta_out}")


@main.command("optimize")
@click.option("--dist", "dist_path", type=click.Path(path_type=Path, exists=True), required=True)
@click.option("--regime", type=click.Choice([LINF, L2]), required=True)
@click.option("--eps", type=float, default=0.01, show_default=True)
@click.option("--t-max", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--p-init", type=float, default=None, help="Initial radius parameter (default 1/n).")
@click.option("--max-doublings", type=int, default=None, help="Doubling cap (default ceil(log2 n) + 2).")
@click.option("--out", type=click.Path(path_type=Path), required=True, help="Estimator JSON path.")
@click.option("--trace", "trace_path", type=click.Path(path_type=Path), default=None, help="Trace CSV path (default: <out>.trace.csv).")
@click.option("--summary", "summary_path", type=click.Path(path_type=Path), default=None, help="Summary JSON path (default: <out>.summary.json).")
@handle_errors
def cmd_optimize(dist_path, regime, eps, t_max, seed, p_init, max_doublings, out, trace_path, summary_path):
    """Synthesize an estimator by OGD with the radius-doubling scheme."""
    dist = load_distribution_file(dist_path)
    cfg = OgdConfig(
        regime=regime,
        eps=eps,
        t_max=t_max,
        p_init=p_init,
        p_doublings_max=max_doublings,
        seed=seed,
    )
    est, trace, p_final = run_with_doubling(dist, cfg)
    trace_path = trace_path if trace_path is not None else out.with_suffix(".trace.csv")
    summary_path = summary_path if summary_path is not None else out.with_suffix(".summary.json")
    save_estimator_file(est, out)
    write_trace_csv(trace, trace_path)
    _write_json(trace_summary(trace, p_final), summary_path)
    click.echo(
        f"wrote {out}; best value {trace.best_value:.6f} at t={trace.best_t}, p_final={p_final:.6g}"
    )


def _load_group_structure(meta_path: Path | None, dist_path: Path, needed: bool) -> GroupStructure | None:
    """Group structure from generator metadata; None for a process without one.

    An explicit --metadata is always read, and must be readable.  When it is
    omitted, the default <dist>.meta.json is read only if ``needed``, and
    an absent one falls back silently to None.
    """
    if meta_path is None:
        meta_path = _meta_path(dist_path)
        if not needed or not meta_path.exists():
            return None
    meta = _load_json(meta_path)
    if not isinstance(meta, dict):
        raise SchemaError("bad_schema", f"{meta_path}: metadata must be a JSON object")
    if "groups" not in meta and "inclusion_prob" not in meta:
        return None
    try:
        return GroupStructure(
            groups=tuple(tuple(g) for g in meta["groups"]),
            inclusion_prob=np.asarray(meta["inclusion_prob"], dtype=float),
        )
    except KeyError as exc:
        raise SchemaError("bad_schema", f"{meta_path}: no {exc} key") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError("bad_schema", f"{meta_path}: bad group structure: {exc}") from exc


def _numeric_array(path: Path, key: str) -> np.ndarray:
    """A JSON file's content, or its ``key`` entry when it is an object, as a
    float array; bad_schema unless it is all finite numbers."""
    data = _load_json(path)
    if isinstance(data, dict):
        if key not in data:
            raise SchemaError("bad_schema", f'{path}: no "{key}" key')
        data = data[key]
    try:
        arr = np.asarray(data)
    except ValueError as exc:  # ragged nesting
        raise SchemaError("bad_schema", f"{path}: not a numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise SchemaError("bad_schema", f"{path}: not an array of finite numbers")
    return arr.astype(float)


def _named_estimators(dist, dist_path, metadata, estimator_paths, baseline_names, datasets=()):
    """(name, estimator) per --estimator file, by its stem, then per --baseline, and the
    group structure; the default metadata is read only for a group baseline or intergroup."""
    needed = "intergroup" in datasets or not {"reweighting", "subgroup"}.isdisjoint(baseline_names)
    gs = _load_group_structure(metadata, dist_path, needed)
    named = [(path.stem, load_estimator_file(path, dist)) for path in estimator_paths]
    named += [(name, baseline_estimator(name, dist, gs)) for name in baseline_names]
    return named, gs


def _dataset_vector(spec: str, n: int, gs: GroupStructure | None) -> np.ndarray | None:
    """Fixed-data vector for a dataset spec, or None for worst-case specs."""
    if spec in ("constant", "intergroup", "intragroup"):
        return synthetic_values(spec, n, groups=gs)
    if spec.startswith("spatial:"):
        path = Path(spec.split(":", 1)[1])
        points = _numeric_array(path, "points")
        if points.ndim != 2 or points.shape[1] != 2:
            raise SchemaError("bad_schema", f"{path}: points must be a (k, 2) array, got {points.shape}")
        vals = spatial_values(points)
        if vals.size != n:
            raise ValueError(f"spatial dataset has {vals.size} points, expected {n}")
        return vals
    if spec.startswith("file:"):
        path = Path(spec.split(":", 1)[1])
        vals = _numeric_array(path, "x")
        if vals.ndim != 1:
            raise SchemaError("bad_schema", f"{path}: data must be a 1-D list, got {vals.shape}")
        if vals.size != n:
            raise ValueError(f"data file {path} holds {vals.size} values, expected {n}")
        return vals
    if spec in ("worst-linf", "worst-l2"):
        return None
    raise ValueError(
        f"unknown dataset spec {spec!r}; expected constant, intergroup, intragroup,"
        " spatial:<points file>, file:<path>, worst-linf, or worst-l2"
    )


@main.command("evaluate")
@click.option("--dist", "dist_path", type=click.Path(path_type=Path, exists=True), required=True)
@click.option("--estimator", "estimator_paths", type=click.Path(path_type=Path, exists=True), multiple=True, help="Estimator JSON file (repeatable).")
@click.option("--baseline", "baseline_names", type=click.Choice(BASELINES), multiple=True, help="Named baseline (repeatable).")
@click.option("--dataset", "dataset_specs", multiple=True, required=True, help="Dataset spec (repeatable).")
@click.option("--metadata", type=click.Path(path_type=Path), default=None, help="Generator metadata JSON (default: <dist>.meta.json).")
@click.option("--eps", type=float, default=0.01, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), required=True, help="Report CSV path.")
@handle_errors
def cmd_evaluate(dist_path, estimator_paths, baseline_names, dataset_specs, metadata, eps, seed, out):
    """Evaluate estimators on fixed datasets and worst-case relaxations."""
    if not estimator_paths and not baseline_names:
        raise ValueError("provide at least one --estimator or --baseline")
    _positive_float("eps", eps)
    dist = load_distribution_file(dist_path)
    named, gs = _named_estimators(dist, dist_path, metadata, estimator_paths, baseline_names, dataset_specs)
    vectors = {spec: _dataset_vector(spec, dist.n, gs) for spec in dataset_specs}

    def cell(e_idx: int, spec: str) -> float:
        est = named[e_idx][1]
        vec = vectors[spec]
        if vec is not None:
            return fixed_data_error(est, dist, vec)
        rng = np.random.default_rng((seed, e_idx, list(dataset_specs).index(spec)))
        # spec "worst-linf" / "worst-l2" is the table row "worst_linf" / "worst_l2"
        return worst_case_cell(est, dist, spec.replace("-", "_"), eps, rng)

    lines = ["estimator,dataset,error"]
    lines += [
        f"{named[i][0]},{spec},{cell(i, spec):.6f}"
        for i in range(len(named))
        for spec in dataset_specs
    ]
    Path(out).write_text("\n".join(lines) + "\n")
    provenance = {
        "distribution": str(dist_path),
        "estimators": [name for name, _ in named],
        "datasets": list(dataset_specs),
        "eps": eps,
        "seed": seed,
    }
    _write_json(provenance, out.with_suffix(".provenance.json"))
    click.echo(f"wrote {out}")


@main.command("experiment")
@click.argument("name", type=click.Choice(list(EXPERIMENTS)))
@click.option("--out-dir", type=click.Path(path_type=Path), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--num-seeds", type=int, default=1, show_default=True, help="Average the table over seeds seed..seed+k-1.")
@click.option("--m", "m", type=int, default=2000, show_default=True)
@click.option("--eps", type=float, default=0.01, show_default=True)
@click.option("--t-max", type=int, default=1000, show_default=True)
@click.option("--overlap-windows", is_flag=True, help="Selective targets include the newest observed point.")
@handle_errors
def cmd_experiment(name, out_dir, seed, num_seeds, m, eps, t_max, overlap_windows):
    """Reproduce a benchmark table; writes <name>.csv and <name>.provenance.json."""
    if num_seeds < 1:
        raise ValueError(f"num-seeds must be >= 1, got {num_seeds}")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [
        run_experiment(name, seed=s, m=m, eps=eps, t_max=t_max, overlap=overlap_windows)
        for s in range(seed, seed + num_seeds)
    ]
    result = results[0] if num_seeds == 1 else average_results(results)
    csv_path = out_dir / f"{name}.csv"
    write_experiment_csv(result, csv_path)
    _write_json(result.provenance, out_dir / f"{name}.provenance.json")
    click.echo(f"wrote {csv_path}")
    for row in result.rows:
        cells = "  ".join(f"{col}={result.cells[row][col]:.6f}" for col in result.columns)
        click.echo(f"{row}: {cells}")


@main.command("lowerbound")
@click.option("--dist", "dist_path", type=click.Path(path_type=Path, exists=True), required=True)
@click.option("--subset", default=None, help="Comma-separated indices for S (default: exhaustive search).")
@click.option("--estimator", "estimator_path", type=click.Path(path_type=Path, exists=True), default=None)
@click.option("--baseline", "baseline_name", type=click.Choice(BASELINES), default=None)
@click.option("--metadata", type=click.Path(path_type=Path), default=None)
@click.option("--out", type=click.Path(path_type=Path), required=True, help="Certificate JSON path.")
@handle_errors
def cmd_lowerbound(dist_path, subset, estimator_path, baseline_name, metadata, out):
    """Certify non-expansion and optionally build adversarial data."""
    if estimator_path is not None and baseline_name is not None:
        raise ValueError("provide at most one of --estimator / --baseline")
    dist = load_distribution_file(dist_path)
    if subset is not None:
        try:
            indices = [int(tok) for tok in subset.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"cannot parse subset {subset!r}")
        cert = check_non_expanding(dist, indices)
    else:
        cert = best_S_bruteforce(dist)
    payload = {
        "subset": list(cert.subset),
        "alpha": cert.alpha,
        "side1_count": cert.side1_count,
        "side2_count": cert.side2_count,
    }
    named, _ = _named_estimators(
        dist, dist_path, metadata, [estimator_path] if estimator_path else [],
        [baseline_name] if baseline_name else [],
    )
    for est_name, est in named:
        adversary, achieved = adversarial_values(
            dist, cert.subset, semilinear_callable(est, dist)
        )
        payload["adversary"] = {
            "estimator": est_name,
            "x": [float(v) for v in adversary.values],
            "achieved_error": achieved,
            "alpha_over_4": cert.alpha / 4.0,
        }
    _write_json(payload, out)
    click.echo(
        f"alpha = {cert.alpha:.6f} (sides {cert.side1_count}/{cert.side2_count}); wrote {out}"
    )


if __name__ == "__main__":
    main()
