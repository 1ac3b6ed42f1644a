"""Experiment grid runner, metrics, and result tables.

A cell of the grid is (function, algorithm, seed): generate a portfolio,
select a batch, compute loss metrics, and record the outcome.  A cell
whose generation raised is recorded with ``error`` set, never fatal; an
incomplete batch is not an error and only has ``complete`` false.  Each
cell writes its files (trajectory, batch, record) when it finishes, in
the process that ran it.  A record holds no timings, so rerunning a grid
rewrites every persisted file byte for byte.
``export_plot_data`` writes the seed-mean curves of a list of records; a
cascade's region log is written by ``CascadeLog.write``.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from .cascade import DsConfig, run_ds
from .baselines import run_cma_indep, run_cma_single, run_random
from .objectives import InvalidDimension, ObjectiveFunction, UnknownFunction
from .objectives import function_ids, make_function
from .selection import Batch, EmptyPortfolio, write_batch
from .selection import clearing_select, exact_select, greedy_select
# write_trajectory stays a module attribute: perfbench wraps it by name
from .trajectory import Trajectory, write_trajectory

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
    "run_experiment",
    "write_normalized_csv",
    "write_records_csv",
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
    out_dir: str | Path | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        # refused before a cell runs, so a bad grid never half-runs and
        # leaves no files; DsConfig refuses a bad k, d_min or center rule
        DsConfig(self.k, self.d_min, self.budget, self.center_strategy)
        if self.method not in SELECTORS:
            raise ValueError(
                f"method must be one of {sorted(SELECTORS)}, got {self.method!r}"
            )
        if self.budget < 1:
            raise EmptyPortfolio(f"budget must be >= 1, got {self.budget}")
        if self.dimension < 2:
            raise InvalidDimension(f"dimension must be >= 2, got {self.dimension}")
        unknown = [fid for fid in self.functions if fid not in function_ids()]
        if unknown:
            raise UnknownFunction(f"unknown function ids {unknown!r}")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown!r}")


def compute_metrics(batch: Batch, fn: ObjectiveFunction):
    """(leader_loss, batch_losses, cum_avg) for a batch.

    ``batch_losses`` are sorted ascending; ``cum_avg[i]`` averages the
    best i+1 of them.
    """
    if not len(batch):
        raise EmptyBatch("cannot compute metrics for an empty batch")
    # Python floats, so the records CSV holds their repr, not np.float64(...)
    fs = batch.fs.tolist()
    losses = sorted(fn.loss(f) for f in fs)
    leader_loss = fn.loss(fs[0])
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
    # objective instances stay fixed while run seeds vary
    fn = make_function(function_id, cfg.dimension, 0)
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
        )
        return record, None, None

    batch = SELECTORS[cfg.method](trajectory, cfg.k, cfg.d_min)

    leader_loss, batch_losses, cum_avg = compute_metrics(batch, fn)
    record = RunRecord(
        **base,
        complete=batch.complete,
        error=False,
        leader_loss=leader_loss,
        batch_losses=batch_losses,
        cum_avg=cum_avg,
    )
    return record, trajectory, batch


def _persist_cell(cfg: ExperimentConfig, function_id: str, algorithm: str, seed: int):
    """Run one cell and write its files under ``cfg.out_dir`` if set.

    Returns the record and the cell's warnings as (message, category)
    pairs, which a worker process could not show to the caller itself.
    """
    # no simplefilter: the caller's filters, "error" ones too, still apply
    with warnings.catch_warnings(record=True) as caught:
        record, trajectory, batch = _run_cell(cfg, function_id, algorithm, seed)
    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        name = f"{function_id}__{algorithm}__s{seed}"
        if trajectory is not None:
            write_trajectory(trajectory, out_dir / "trajectories" / f"{name}.csv")
        if batch is not None:
            write_batch(batch, out_dir / "batches" / f"{name}.json")
        (out_dir / "records" / f"{name}.json").write_text(
            json.dumps(asdict(record), indent=2) + "\n"
        )
    return record, [(str(w.message), w.category) for w in caught]


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run every grid cell, optionally persisting artifacts under out_dir.

    Persists ``trajectories/<cell>.csv``, ``batches/<cell>.json`` and
    ``records/<cell>.json`` per cell, as soon as that cell finishes and in
    the process that ran it.  Cells are independent, so they can run in
    parallel (``workers``) with identical files; the records come back in
    cell order either way.  Each cell's warnings are re-issued here as its
    record arrives, so a grid that raises still shows the earlier ones.
    """
    if cfg.out_dir is not None:
        for sub in ("trajectories", "batches", "records"):
            (Path(cfg.out_dir) / sub).mkdir(parents=True, exist_ok=True)
    cells = list(product(cfg.functions, cfg.algorithms, cfg.seeds))
    # one column per argument; an empty grid leaves only the empty cfg column
    columns = ([cfg] * len(cells), *zip(*cells))
    parallel = cfg.workers > 1
    records = []
    with ProcessPoolExecutor(max_workers=cfg.workers) if parallel else nullcontext() as pool:
        for record, caught in (pool.map if parallel else map)(_persist_cell, *columns):
            for message, category in caught:
                warnings.warn(message, category, stacklevel=1)
            records.append(record)
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


def _write_csv(columns: list[str], rows: list[dict], path: str | Path) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_format_cell(row[c]) for c in columns) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_records_csv(records: list[RunRecord], path: str | Path) -> None:
    _write_csv(_RECORD_COLUMNS, [asdict(r) for r in records], path)


def write_normalized_csv(rows: list[dict], path: str | Path) -> None:
    _write_csv(["function", "algorithm", "seed", "batch_avg_loss", "normalized"], rows, path)


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

