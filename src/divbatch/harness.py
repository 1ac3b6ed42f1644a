"""Experiment grid runner, metrics, and result tables.

A cell of the grid is (function, algorithm, seed): generate a portfolio,
select a batch, compute loss metrics, and record the outcome.  A cell
whose generation raised is recorded with ``error`` set, never fatal; an
incomplete batch is not an error and only has ``complete`` false.  Each
cell writes its files (trajectory, batch, record) when it finishes, in
the process that ran it.  A record holds no timings, so rerunning a grid
rewrites every persisted file byte for byte.  The process pool, and the
``multiprocessing`` modules it needs, load only when a grid runs with
``workers > 1``.
A record keeps its sorted batch losses and nothing derived from them;
``export_plot_data`` derives the seed-mean curves.  Every table goes through one CSV writer,
and a cascade's region log is written by ``CascadeLog.write``.
"""

from __future__ import annotations

import json
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from .cascade import DsConfig, run_ds
from .baselines import run_cma_indep, run_cma_single, run_random
from .objectives import InvalidDimension, ObjectiveFunction, UnknownFunction
from .objectives import function_ids, make_function
from .selection import Batch, write_batch
from .selection import clearing_select, exact_select, greedy_select
# write_trajectory stays a module attribute: perfbench wraps it by name
from .trajectory import _check_int, write_trajectory

__all__ = [
    "ALGORITHMS",
    "EmptyBatch",
    "ExperimentConfig",
    "GENERATORS",
    "MixedProtocols",
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

# (fn, cfg, seed) -> Trajectory; names resolve per call, so patched wrappers see it
GENERATORS = {
    "ds": lambda fn, cfg, seed: run_ds(
        DsConfig(cfg.k, cfg.d_min, cfg.budget, cfg.center_strategy, seed), fn
    )[0],
    "random": lambda fn, cfg, seed: run_random(fn, cfg.budget, seed),
    "cma": lambda fn, cfg, seed: run_cma_single(fn, cfg.budget, seed),
    "cma-indep": lambda fn, cfg, seed: run_cma_indep(fn, cfg.budget, cfg.k, seed),
}
ALGORITHMS = tuple(GENERATORS)
SELECTORS = {
    "clearing": clearing_select,
    "greedy": greedy_select,
    "exact": exact_select,
}


class EmptyBatch(ValueError):
    """Metrics requested for a batch with no points."""


class MixedProtocols(ValueError):
    """Records read together that were run under different protocols."""


# the settings every record of one directory shares where it holds them
_PROTOCOL_FIELDS = ("dimension", "budget", "k", "d_min", "method", "center_strategy")


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
    center_strategy: str | None
    complete: bool
    error: bool
    leader_loss: float
    batch_losses: list[float]

    def batch_average(self) -> float:
        return float(np.mean(self.batch_losses)) if self.batch_losses else float("nan")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition: the cross product functions x algorithms x seeds.

    Frozen, so no field can change after ``__post_init__`` has checked it.
    A cell is listed once: a repeated function id, algorithm or seed,
    whose files would overwrite each other, raises ValueError.
    """

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
        # leaves no files; DsConfig refuses a bad k, d_min, budget, seed or
        # center rule, and seed 0 checks the others when no seed is listed
        for seed in (0, *self.seeds):
            DsConfig(self.k, self.d_min, self.budget, self.center_strategy, seed)
        if self.method not in SELECTORS:
            raise ValueError(
                f"method must be one of {sorted(SELECTORS)}, got {self.method!r}"
            )
        _check_int("dimension", self.dimension, 2, InvalidDimension)
        unknown = [fid for fid in self.functions if fid not in function_ids()]
        if unknown:
            raise UnknownFunction(f"unknown function ids {unknown!r}")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown!r}")
        for name in ("functions", "algorithms", "seeds"):
            values = list(getattr(self, name))
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{name} lists {repeats[0]!r} more than once")
        _check_int("workers", self.workers, 1)


def compute_metrics(batch: Batch, fn: ObjectiveFunction):
    """(leader_loss, batch_losses) for a batch; ``batch_losses`` are sorted ascending."""
    if not len(batch):
        raise EmptyBatch("cannot compute metrics for an empty batch")
    # Python floats, so the records CSV holds their repr, not np.float64(...)
    fs = batch.fs.tolist()
    losses = sorted(fn.loss(f) for f in fs)
    return fn.loss(fs[0]), losses


def _stamps(cfg: ExperimentConfig, function_id: str, algorithm: str, seed: int) -> dict:
    """The fields a cell's record takes from the grid, known before the cell runs."""
    # Python ints, which the record file can hold where numpy ones cannot
    return dict(
        function_id=function_id,
        algorithm=algorithm,
        seed=int(seed),
        dimension=int(cfg.dimension),
        budget=int(cfg.budget),
        k=int(cfg.k),
        d_min=cfg.d_min,
        method=cfg.method,
        center_strategy=cfg.center_strategy if algorithm == "ds" else None,
    )


def _run_cell(cfg: ExperimentConfig, function_id: str, algorithm: str, seed: int):
    """Returns (record, trajectory, batch); trajectory/batch are None on error."""
    # objective instances stay fixed while run seeds vary
    fn = make_function(function_id, cfg.dimension, 0)
    base = _stamps(cfg, function_id, algorithm, seed)
    try:
        trajectory = GENERATORS[algorithm](fn, cfg, seed)
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the grid
        warnings.warn(f"{function_id}/{algorithm}/seed {seed} failed: {exc}", stacklevel=2)
        record = RunRecord(
            **base, complete=False, error=True, leader_loss=float("nan"), batch_losses=[]
        )
        return record, None, None

    batch = SELECTORS[cfg.method](trajectory, cfg.k, cfg.d_min)

    leader_loss, batch_losses = compute_metrics(batch, fn)
    record = RunRecord(
        **base,
        complete=batch.complete,
        error=False,
        leader_loss=leader_loss,
        batch_losses=batch_losses,
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
    cell order either way.  The process pool is imported only when
    ``workers > 1``.  Each cell's warnings are re-issued here as its
    record arrives, so a grid that raises still shows the earlier ones.
    Before a directory is made or a cell runs, a grid whose records would
    mix protocols with those under ``out_dir`` raises ``MixedProtocols``.
    """
    cells = list(product(cfg.functions, cfg.algorithms, cfg.seeds))
    if cfg.out_dir is not None:
        stamps = {f"{f}__{a}__s{s}.json": _stamps(cfg, f, a, s) for f, a, s in cells}
        _check_protocol(Path(cfg.out_dir) / "records", stamps)
        for sub in ("trajectories", "batches", "records"):
            (Path(cfg.out_dir) / sub).mkdir(parents=True, exist_ok=True)
    # one column per argument; an empty grid leaves only the empty cfg column
    columns = ([cfg] * len(cells), *zip(*cells))
    parallel = cfg.workers > 1
    if parallel:
        # imported here: the pool pulls in multiprocessing, socket, logging
        # and more, about 2 MB that a serial grid or a plain import never uses
        from concurrent.futures import ProcessPoolExecutor
    records = []
    with ProcessPoolExecutor(max_workers=cfg.workers) if parallel else nullcontext() as pool:
        for record, caught in (pool.map if parallel else map)(_persist_cell, *columns):
            for message, category in caught:
                warnings.warn(message, category, stacklevel=1)
            records.append(record)
    return records


def read_records_dir(path: str | Path) -> list[RunRecord]:
    """Load every records/<cell>.json under an experiment output directory.

    The records must share one protocol: a record whose dimension, budget,
    k, ``d_min``, selection method or center strategy differs from the
    first file's raises ``MixedProtocols``, naming the field and both
    files; only ``ds`` records hold a center strategy.  A file whose fields
    are not ``RunRecord``'s, such as one holding a curve, raises ``TypeError``.
    """
    root = Path(path)
    records_dir = root / "records" if (root / "records").is_dir() else root
    records = _check_protocol(records_dir, {})
    if not records:
        raise FileNotFoundError(f"no record files under {records_dir}")
    return records


def _check_protocol(records_dir: Path, cells: dict[str, dict]) -> list[RunRecord]:
    """The records under ``records_dir``, in file name order, once they and ``cells``
    (record file name -> stamps) agree on every protocol field that holds a value."""
    files = sorted(records_dir.glob("*.json"))
    records = [RunRecord(**json.loads(f.read_text())) for f in files]
    stamped = [*zip([f.name for f in files], map(vars, records)), *cells.items()]
    for name in _PROTOCOL_FIELDS:
        held = [(file, stamps[name]) for file, stamps in stamped if stamps[name] is not None]
        for file, value in held[1:]:
            if value != held[0][1]:
                raise MixedProtocols(
                    f"records disagree on {name}: {held[0][1]!r} in {held[0][0]}, "
                    f"{value!r} in {file}"
                )
    return records


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
    if value is None:
        return ""
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
    count of complete seeds and the seed mean of their cumulative averages,
    ``avg_i`` averaging the best i batch losses; the cells stay empty when
    no seed is complete.

    Region centers of a cascade run are written by ``CascadeLog.write``.
    """
    records = list(records)
    k = max((r.k for r in records), default=0)
    columns = [f"avg_{i + 1}" for i in range(k)]
    rows = []
    for fid, algo in sorted({(r.function_id, r.algorithm) for r in records}):
        group = [r for r in records if r.function_id == fid and r.algorithm == algo]
        losses = [r.batch_losses for r in group if r.complete and len(r.batch_losses) == k]
        curve = [""] * k
        if losses:
            # Python floats, so each cell holds its repr, not np.float64(...)
            curve = (np.cumsum(losses, axis=1) / np.arange(1, k + 1)).mean(axis=0).tolist()
        row = {"function": fid, "algorithm": algo, "n_complete": len(losses)}
        rows.append({**row, **dict(zip(columns, curve))})
    _write_csv(["function", "algorithm", "n_complete", *columns], rows, path)
