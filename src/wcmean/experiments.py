"""End-to-end reproduction of the three benchmark experiments.

Each experiment builds its collection process, fits both OGD estimators,
and fills a table of error metrics: fixed synthetic datasets as rows where
the process has natural ones, plus the two worst-case relaxation values.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import GroupStructure, baseline_estimator
from .collectors import gen_importance, gen_selective, gen_snowball
from .core import (
    L2,
    LINF,
    SampleTargetDistribution,
    SemilinearEstimator,
    build_loss_matrix,
    fixed_data_error,
)
from .optimizer import OgdConfig, run_with_doubling, trace_summary
from .subproblems import SdpConvergenceError, sdp2_value, sdp_inf_solve

EXPERIMENTS = ("importance", "snowball", "selective")

_LAYOUT = {
    "importance": {
        "columns": ("reweighting", "subgroup", "ogd_linf", "ogd_l2"),
        "rows": ("constant", "intergroup", "intragroup", "worst_linf", "worst_l2"),
    },
    "snowball": {
        "columns": ("sample_mean", "ogd_linf", "ogd_l2"),
        "rows": ("spatial", "worst_linf", "worst_l2"),
    },
    "selective": {
        "columns": ("selective_prediction", "ogd_linf", "ogd_l2"),
        "rows": ("worst_linf", "worst_l2"),
    },
}
_OGD_REGIME = {"ogd_linf": LINF, "ogd_l2": L2}

# generator parameters of each table, passed to its generator as they are
# recorded in the provenance
IMPORTANCE_PARAMS = {"n": 50, "split": 25, "probs": (0.1, 0.5)}
SNOWBALL_PARAMS = {"n": 50, "k": 25, "num_neighbors": 5, "recruit": 2}
SELECTIVE_PARAMS = {"n": 32, "windows": (1, 2, 4, 8, 16)}


@dataclass
class ExperimentResult:
    name: str
    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: dict[str, dict[str, float]]
    estimators: dict[str, SemilinearEstimator]
    provenance: dict


def spatial_values(points: np.ndarray) -> np.ndarray:
    """Sum of the two coordinates of each population point."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got {points.shape}")
    return points.sum(axis=1)


def synthetic_values(row: str, n: int, split: int | None = None) -> np.ndarray:
    """A synthetic dataset: ``constant`` all ones, ``intergroup`` +1 on the
    first group and -1 on the second (split defaults to n/2), ``intragroup``
    alternating +1/-1 within every group."""
    if row == "constant":
        return np.ones(n)
    if row == "intergroup":
        return np.where(np.arange(n) < (n // 2 if split is None else split), 1.0, -1.0)
    if row == "intragroup":
        return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    raise ValueError(f"unknown synthetic dataset {row!r}")


def worst_case_cell(
    est: SemilinearEstimator,
    dist: SampleTargetDistribution,
    row: str,
    eps: float,
    rng: np.random.Generator,
) -> float:
    if row == "worst_linf":
        return sdp_inf_solve(build_loss_matrix(est, dist), eps, rng).objective
    if row == "worst_l2":
        return sdp2_value(est, dist, eps, rng)[0]
    raise ValueError(f"unknown worst-case row {row!r}")


def run_experiment(
    name: str,
    seed: int = 0,
    m: int = 2000,
    eps: float = 0.01,
    t_max: int = 1000,
    overlap: bool = False,
) -> ExperimentResult:
    """Build the process, fit both OGD estimators, and fill the error table.

    Every worst-case cell draws from its own rng, derived from the seed and
    the cell's position, so a cell's value does not depend on the others.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    started = time.perf_counter()
    points = None
    gs: GroupStructure | None = None
    if name == "importance":
        generator = {**IMPORTANCE_PARAMS, "m": m, "seed": seed}
        dist, gs = gen_importance(**generator)
    elif name == "snowball":
        generator = {**SNOWBALL_PARAMS, "m": m, "seed": seed}
        dist, points = gen_snowball(**generator)
    else:
        dist = gen_selective(**SELECTIVE_PARAMS, overlap=overlap)
        generator = {
            **SELECTIVE_PARAMS,
            "window_convention": "overlap" if overlap else "disjoint",
        }
    layout = _LAYOUT[name]
    columns = layout["columns"]
    rows = layout["rows"]

    estimators: dict[str, SemilinearEstimator] = {}
    ogd_info: dict[str, dict] = {}
    for col in columns:
        if col in _OGD_REGIME:
            cfg = OgdConfig(regime=_OGD_REGIME[col], eps=eps, t_max=t_max, seed=seed)
            est, trace, p_final = run_with_doubling(dist, cfg)
            estimators[col] = est
            ogd_info[col] = trace_summary(trace, p_final)
        else:
            estimators[col] = baseline_estimator(col, dist, gs)

    convergence_notes: list[str] = []

    def fill_cell(row: str, col: str) -> float:
        est = estimators[col]
        if row in ("constant", "intergroup", "intragroup"):
            values = synthetic_values(row, dist.n, generator["split"])
            return fixed_data_error(est, dist, values)
        if row == "spatial":
            return fixed_data_error(est, dist, spatial_values(points))
        rng = np.random.default_rng(
            (seed, 1000 + columns.index(col), rows.index(row))
        )
        try:
            return worst_case_cell(est, dist, row, eps, rng)
        except SdpConvergenceError as exc:
            # the carried assignment is still feasible, so its value is a
            # valid lower bound on the cell; keep it and flag the table
            convergence_notes.append(f"{row}/{col}: {exc}")
            return exc.assignment.objective

    cells = {row: {col: float(fill_cell(row, col)) for col in columns} for row in rows}

    provenance = {
        "experiment": name,
        "seed": seed,
        "eps": eps,
        "t_max": t_max,
        "generator": generator,
        "ogd": ogd_info,
        "runtime_s": round(time.perf_counter() - started, 3),
    }
    if convergence_notes:
        provenance["convergence_notes"] = convergence_notes
    return ExperimentResult(name, rows, columns, cells, estimators, provenance)


def average_results(results: list[ExperimentResult]) -> ExperimentResult:
    """Cell-wise mean over same-layout runs; provenance keeps every seed."""
    if not results:
        raise ValueError("no results to average")
    first = results[0]
    for r in results[1:]:
        if r.rows != first.rows or r.columns != first.columns:
            raise ValueError("results have mismatched layouts")
    cells = {
        row: {
            col: float(np.mean([r.cells[row][col] for r in results]))
            for col in first.columns
        }
        for row in first.rows
    }
    provenance = {
        "experiment": first.name,
        "seeds": [r.provenance["seed"] for r in results],
        "eps": first.provenance["eps"],
        "t_max": first.provenance["t_max"],
        "runs": [r.provenance for r in results],
    }
    return ExperimentResult(
        first.name, first.rows, first.columns, cells, first.estimators, provenance
    )


def write_experiment_csv(result: ExperimentResult, path: str | Path) -> None:
    """Table CSV mirroring the experiment layout, 6-decimal fixed point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["data_values", *result.columns])
        for row in result.rows:
            writer.writerow(
                [row, *(f"{result.cells[row][col]:.6f}" for col in result.columns)]
            )
