"""End-to-end reproduction of the three benchmark experiments.

Each experiment builds its collection process, fits both OGD estimators,
and fills a table of error metrics: fixed synthetic datasets as rows where
the process has natural ones, plus the two worst-case relaxation values.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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


@dataclass
class ExperimentResult:
    name: str
    rows: tuple[str, ...]
    columns: tuple[str, ...]
    cells: dict[str, dict[str, float]]
    estimators: dict[str, SemilinearEstimator]
    provenance: dict


def constant_values(n: int) -> np.ndarray:
    return np.ones(n)


def intergroup_values(n: int, split: int | None = None) -> np.ndarray:
    """+1 on the first group, -1 on the second (split defaults to n/2)."""
    split = n // 2 if split is None else split
    return np.where(np.arange(n) < split, 1.0, -1.0)


def intragroup_values(n: int) -> np.ndarray:
    """Alternating +1/-1 within every group."""
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def spatial_values(points: np.ndarray) -> np.ndarray:
    """Sum of the two coordinates of each population point."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got {points.shape}")
    return points.sum(axis=1)


def synthetic_values(row: str, n: int, split: int | None = None) -> np.ndarray:
    if row == "constant":
        return constant_values(n)
    if row == "intergroup":
        return intergroup_values(n, split)
    if row == "intragroup":
        return intragroup_values(n)
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


def map_cells(fill: Callable[..., float], keys: list[tuple], threads: int) -> list[float]:
    """fill(*key) for every key, in key order; on a thread pool when threads > 1."""
    if threads == 1:
        return [fill(*key) for key in keys]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda key: fill(*key), keys))


def run_experiment(
    name: str,
    seed: int = 0,
    m: int = 2000,
    eps: float = 0.01,
    t_max: int = 1000,
    overlap: bool = False,
    threads: int = 1,
) -> ExperimentResult:
    """Build the process, fit both OGD estimators, and fill the error table.

    Every cell's randomness comes from its own deterministically derived
    rng, so results are byte-identical regardless of thread count.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    split = None
    points = None
    gs: GroupStructure | None = None
    if name == "importance":
        split = 25
        dist, gs = gen_importance(m=m, seed=seed)
        generator = {"n": dist.n, "split": split, "probs": [0.1, 0.5], "m": m, "seed": seed}
    elif name == "snowball":
        dist, points = gen_snowball(m=m, seed=seed)
        generator = {
            "n": dist.n,
            "k": 25,
            "num_neighbors": 5,
            "recruit": 2,
            "m": m,
            "seed": seed,
        }
    else:
        dist = gen_selective(overlap=overlap)
        generator = {
            "n": dist.n,
            "windows": [1, 2, 4, 8, 16],
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
            return fixed_data_error(est, dist, synthetic_values(row, dist.n, split))
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

    cell_keys = [(row, col) for row in rows for col in columns]
    values = map_cells(fill_cell, cell_keys, threads)
    cells: dict[str, dict[str, float]] = {row: {} for row in rows}
    for (row, col), value in zip(cell_keys, values):
        cells[row][col] = float(value)

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
    if points is not None:
        provenance["points"] = [[float(a), float(b)] for a, b in points]
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
