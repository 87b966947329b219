"""Summarize the per-run results files into one reference file.

    python3 perfbench/summarize.py --out perfbench/reference/BENCH_<tag>.json

Reads every ``perfbench/out/BENCH_*.json`` (or the files given with
``--results``), groups them by workload and trace mode, and reports for
each metric the median over runs and the spread: the distance between the
first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  The tracing overhead of
a workload is its median traced ``run_s`` over its median untraced one,
less one.  A markdown table of the same figures is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med


def summarize(files: list) -> dict:
    runs: dict = {}
    for path in files:
        res = json.loads(Path(path).read_text())
        runs.setdefault(res["workload"], {}).setdefault(res["trace"], []).append(res)
    out: dict = {"workloads": {}}
    for workload, modes in sorted(runs.items()):
        entry: dict = {}
        for trace, results in sorted(modes.items()):
            section = "per_layer" if trace else "end_to_end"
            metrics: dict = {}
            for name in results[0][section]:
                values = [r[section][name] for r in results]
                metrics[name] = {"median": statistics.median(values), "spread": spread(values)}
            entry["traced" if trace else "untraced"] = {
                "runs": len(results),
                "seeds": sorted(r["seed"] for r in results),
                "attempted": sorted({r["attempted"] for r in results}),
                "failed": sorted({r["failed"] for r in results}),
                "correct": all(r["correct"] for r in results),
                "failures": sorted({f["op"] for r in results for f in r["failures"]}),
                "metrics": metrics,
                "run_s": statistics.median(r["end_to_end"]["run_s"] for r in results),
            }
            out["machine"] = results[0]["machine"]
        if "traced" in entry and "untraced" in entry:
            entry["trace_overhead"] = entry["traced"]["run_s"] / entry["untraced"]["run_s"] - 1.0
        out["workloads"][workload] = entry
    return out


def table(summary: dict) -> str:
    names = list(summary["workloads"])
    lines = ["| metric | " + " | ".join(names) + " |", "|---" * (len(names) + 1) + "|"]
    rows: dict = {}
    for w in names:
        for mode in ("untraced", "traced"):
            for metric, fig in summary["workloads"][w].get(mode, {}).get("metrics", {}).items():
                rows.setdefault(metric, {})[w] = f"{fig['median']:.4g} ({fig['spread']:.1%})"
    for metric, cells in rows.items():
        lines.append(f"| `{metric}` | " + " | ".join(cells.get(w, "") for w in names) + " |")
    lines.append("| tracing overhead | " + " | ".join(
        f"{summary['workloads'][w]['trace_overhead']:+.1%}" if "trace_overhead" in summary["workloads"][w] else ""
        for w in names) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--results", nargs="*", default=None, help="results files (default: perfbench/out/BENCH_*.json)")
    ap.add_argument("--out", type=Path, default=None, help="where to write the summary JSON")
    args = ap.parse_args(argv)
    files = args.results if args.results is not None else sorted((HERE / "out").glob("BENCH_*.json"))
    if not files:
        print("error: no results files", file=sys.stderr)
        return 2
    summary = summarize(files)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
