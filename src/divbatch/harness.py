"""Experiment grid runner, metrics, and result tables.

A cell of the grid is (function, algorithm, seed): generate a portfolio,
select a batch, compute loss metrics, and record the outcome.  A cell
whose generation raised is recorded with ``error`` set, never fatal; an
incomplete batch is not an error and only has ``complete`` false.
Portfolio generation and batch selection are timed separately with
process CPU time.  ``export_plot_data`` writes the seed-mean curves of a
list of records; a cascade's region log is written by ``CascadeLog.write``.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .cascade import DsConfig, run_ds
from .baselines import run_cma_indep, run_cma_single, run_random
from .objectives import ObjectiveFunction, make_function
from .selection import Batch, clearing_select, exact_select, greedy_select, write_batch
from .trajectory import Trajectory, read_trajectory, write_trajectory

__all__ = [
    "ALGORITHMS",
    "EmptyBatch",
    "ExperimentConfig",
    "RunRecord",
    "SELECTORS",
    "compute_metrics",
    "export_plot_data",
    "normalize_losses",
    "read_records_dir",
    "read_trajectory",
    "run_experiment",
    "write_normalized_csv",
    "write_records_csv",
    "write_trajectory",
]

ALGORITHMS = ("ds", "random", "cma", "cma-indep")
SELECTORS = {
    "clearing": clearing_select,
    "greedy": greedy_select,
    "exact": exact_select,
}


class EmptyBatch(ValueError):
    """Metrics requested for a batch with no points."""


@dataclass
class RunRecord:
    """Outcome of one (function, algorithm, seed) cell."""

    function_id: str
    algorithm: str
    seed: int
    dimension: int
    budget: int
    k: int
    d_min: float
    method: str
    complete: bool
    error: bool
    leader_loss: float
    batch_losses: list[float]
    cum_avg: list[float]
    cpu_seconds: float
    select_cpu_seconds: float

    def batch_average(self) -> float:
        return float(np.mean(self.batch_losses)) if self.batch_losses else float("nan")


@dataclass
class ExperimentConfig:
    """Grid definition: the cross product functions x algorithms x seeds."""

    functions: list[str]
    algorithms: list[str]
    seeds: list[int]
    dimension: int
    budget: int
    k: int
    d_min: float
    method: str = "clearing"
    center_strategy: str = "population_best"
    # objective instances stay fixed while run seeds vary
    instance_seed: int = 0
    out_dir: str | Path | None = None
    workers: int = 1


def compute_metrics(batch: Batch, fn: ObjectiveFunction):
    """(leader_loss, batch_losses, cum_avg) for a batch.

    ``batch_losses`` are sorted ascending; ``cum_avg[i]`` averages the
    best i+1 of them.
    """
    if not batch.points:
        raise EmptyBatch("cannot compute metrics for an empty batch")
    losses = sorted(fn.loss(p.f) for p in batch.points)
    leader_loss = fn.loss(batch.points[0].f)
    cum_avg = [float(v) for v in np.cumsum(losses) / np.arange(1, len(losses) + 1)]
    return leader_loss, losses, cum_avg


def _generate(algorithm: str, fn: ObjectiveFunction, cfg: ExperimentConfig, seed: int) -> Trajectory:
    if algorithm == "ds":
        ds = DsConfig(
            k=cfg.k,
            d_min=cfg.d_min,
            budget=cfg.budget,
            center_strategy=cfg.center_strategy,
            seed=seed,
        )
        return run_ds(ds, fn)
    if algorithm == "random":
        return run_random(fn, cfg.budget, seed)
    if algorithm == "cma":
        return run_cma_single(fn, cfg.budget, seed)
    if algorithm == "cma-indep":
        return run_cma_indep(fn, cfg.budget, cfg.k, seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _run_cell(cfg: ExperimentConfig, function_id: str, algorithm: str, seed: int):
    """Returns (record, trajectory, batch); trajectory/batch are None on error."""
    fn = make_function(function_id, cfg.dimension, cfg.instance_seed)
    base = dict(
        function_id=function_id,
        algorithm=algorithm,
        seed=seed,
        dimension=cfg.dimension,
        budget=cfg.budget,
        k=cfg.k,
        d_min=cfg.d_min,
        method=cfg.method,
    )
    start = time.process_time()
    try:
        trajectory = _generate(algorithm, fn, cfg, seed)
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the grid
        warnings.warn(f"{function_id}/{algorithm}/seed {seed} failed: {exc}", stacklevel=2)
        record = RunRecord(
            **base,
            complete=False,
            error=True,
            leader_loss=float("nan"),
            batch_losses=[],
            cum_avg=[],
            cpu_seconds=time.process_time() - start,
            select_cpu_seconds=0.0,
        )
        return record, None, None
    cpu_seconds = time.process_time() - start

    start = time.process_time()
    batch = SELECTORS[cfg.method](trajectory, cfg.k, cfg.d_min)
    select_cpu_seconds = time.process_time() - start

    leader_loss, batch_losses, cum_avg = compute_metrics(batch, fn)
    record = RunRecord(
        **base,
        complete=batch.complete,
        error=False,
        leader_loss=leader_loss,
        batch_losses=batch_losses,
        cum_avg=cum_avg,
        cpu_seconds=cpu_seconds,
        select_cpu_seconds=select_cpu_seconds,
    )
    return record, trajectory, batch


def _run_cell_task(args):
    cfg_dict, function_id, algorithm, seed = args
    return _run_cell(ExperimentConfig(**cfg_dict), function_id, algorithm, seed)


def _cell_name(function_id: str, algorithm: str, seed: int) -> str:
    return f"{function_id}__{algorithm}__s{seed}"


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run every grid cell, optionally persisting artifacts under out_dir.

    Persists ``trajectories/<cell>.csv``, ``batches/<cell>.json`` and
    ``records/<cell>.json`` per cell.  Cells are independent, so they can
    run in parallel (``workers``) with identical results.
    """
    cells = [
        (fid, algo, seed)
        for fid in cfg.functions
        for algo in cfg.algorithms
        for seed in cfg.seeds
    ]
    if cfg.workers > 1:
        cfg_dict = asdict(cfg)
        args = [(cfg_dict, *cell) for cell in cells]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_run_cell_task, args))
    else:
        outcomes = [_run_cell(cfg, *cell) for cell in cells]

    records = []
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        for sub in ("trajectories", "batches", "records"):
            (out_dir / sub).mkdir(parents=True, exist_ok=True)
    for (function_id, algorithm, seed), (record, trajectory, batch) in zip(cells, outcomes):
        records.append(record)
        if out_dir is None:
            continue
        name = _cell_name(function_id, algorithm, seed)
        if trajectory is not None:
            write_trajectory(trajectory, out_dir / "trajectories" / f"{name}.csv")
        if batch is not None:
            write_batch(batch, out_dir / "batches" / f"{name}.json")
        (out_dir / "records" / f"{name}.json").write_text(
            json.dumps(asdict(record), indent=2) + "\n"
        )
    return records


def read_records_dir(path: str | Path) -> list[RunRecord]:
    """Load every records/<cell>.json under an experiment output directory."""
    root = Path(path)
    records_dir = root / "records" if (root / "records").is_dir() else root
    files = sorted(records_dir.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no record files under {records_dir}")
    return [RunRecord(**json.loads(f.read_text())) for f in files]


def normalize_losses(records: list[RunRecord]) -> list[dict]:
    """Batch-average losses scaled by the best diversity-search run per function.

    Within each function group the denominator is the smallest complete
    ``ds`` batch-average; groups without one are skipped with a warning.
    Only complete runs are normalized.
    """
    rows: list[dict] = []
    functions = sorted({r.function_id for r in records})
    for fid in functions:
        group = [r for r in records if r.function_id == fid]
        ds_avgs = [r.batch_average() for r in group if r.algorithm == "ds" and r.complete]
        if not ds_avgs:
            warnings.warn(f"no complete ds run for function {fid}; group skipped", stacklevel=2)
            continue
        denom = min(ds_avgs)
        for r in group:
            if not r.complete:
                continue
            avg = r.batch_average()
            if denom > 0:
                normalized = avg / denom
            else:
                normalized = 1.0 if avg == 0 else float("inf")
            rows.append(
                {
                    "function": fid,
                    "algorithm": r.algorithm,
                    "seed": r.seed,
                    "batch_avg_loss": avg,
                    "normalized": normalized,
                }
            )
    return rows


_RECORD_COLUMNS = [f.name for f in fields(RunRecord)]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(repr(float(v)) for v in value)
    return str(value)


def write_records_csv(records: list[RunRecord], path: str | Path) -> None:
    lines = [",".join(_RECORD_COLUMNS)]
    for r in records:
        d = asdict(r)
        lines.append(",".join(_format_cell(d[c]) for c in _RECORD_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def write_normalized_csv(rows: list[dict], path: str | Path) -> None:
    columns = ["function", "algorithm", "seed", "batch_avg_loss", "normalized"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def export_plot_data(records: list[RunRecord], path: str | Path) -> None:
    """Write plot-ready curves: one row per (function, algorithm) with the
    seed-mean cumulative-average curve and the count of complete seeds.

    Region centers of a cascade run are written by ``CascadeLog.write``.
    """
    records = list(records)
    k = max((r.k for r in records), default=0)
    pairs = sorted({(r.function_id, r.algorithm) for r in records})
    lines = ["function,algorithm,n_complete," + ",".join(f"avg_{i + 1}" for i in range(k))]
    for fid, algo in pairs:
        group = [r for r in records if r.function_id == fid and r.algorithm == algo]
        curves = [r.cum_avg for r in group if r.complete and len(r.cum_avg) == k]
        n_complete = len(curves)
        if n_complete:
            mean_curve = np.mean(np.asarray(curves), axis=0)
            tail = ",".join(repr(float(v)) for v in mean_curve)
        else:
            tail = ",".join([""] * k)
        lines.append(f"{fid},{algo},{n_complete},{tail}")
    Path(path).write_text("\n".join(lines) + "\n")

