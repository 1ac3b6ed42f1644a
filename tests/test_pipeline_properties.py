"""A hostile-input property test of the whole pipeline, checked from its files alone.

Hypothesis draws small grids: D from 2 to 6, a budget from 1 to 300, k
from 1 to the budget, ``d_min`` from 0 to just past the box diameter (the
diameter itself included), one function, one center strategy, one
selector and all four algorithms.  The objective returns NaN, +inf or
-inf on a drawn share of its points.  ``run_experiment`` writes the grid
twice into one directory, and each cell is then read back from its files
alone:

- a failed cell is a ``ds`` cell whose k means could not be placed
  ``d_min`` apart, and its warning names that cause;
- any other cell's trajectory holds exactly ``budget`` rows, and its
  batch holds rows of that trajectory, led by its best point (NaN ranked
  as +inf, the first row among ties), every pair at least ``d_min``
  apart as ``verify_batch`` tests it;
- the second run, under the same protocol, was accepted and rewrote
  every file byte for byte.

The directory is then read as ``report`` reads it, and its three tables
are written.

``exact`` runs under a small ``WORK_CAP``, and the examples come from a
fixed seed, so the test is deterministic and takes about 10 s.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from divbatch import (
    ALGORITHMS,
    CENTER_STRATEGIES,
    SELECTORS,
    Batch,
    Box,
    ExperimentConfig,
    export_plot_data,
    function_ids,
    harness,
    normalize_losses,
    read_records_dir,
    read_trajectory,
    run_experiment,
    selection,
    verify_batch,
    write_normalized_csv,
    write_records_csv,
)

NON_FINITE = np.array([np.nan, np.inf, -np.inf])


class Hostile:
    """An objective whose value is NaN, +inf or -inf on a share of its points.

    Whether a point is hit, and by which value, is a hash of its
    coordinates, so a rerun hits the same points.
    """

    def __init__(self, fn, share):
        self.fn, self.share, self.box = fn, share, fn.box

    def __getattr__(self, name):
        return getattr(self.fn, name)

    def evaluate_many(self, xs):
        fs = np.array(self.fn.evaluate_many(xs), dtype=float)
        u = (np.sin(xs @ np.arange(1.0, xs.shape[1] + 1) * 12.9898) * 43758.5453) % 1.0
        hit = u < self.share
        fs[hit] = NON_FINITE[np.minimum((3 * u[hit] / self.share).astype(int), 2)]
        return fs


@st.composite
def hostile_grids(draw):
    """(config, share of non-finite values) of a one-function, one-seed grid."""
    dimension = draw(st.integers(2, 6))
    budget = draw(st.integers(1, 300))
    diameter = Box.cube(dimension).diameter
    config = ExperimentConfig(
        functions=[draw(st.sampled_from(function_ids()))],
        algorithms=list(ALGORITHMS),
        seeds=[draw(st.integers(0, 2**16))],
        dimension=dimension,
        budget=budget,
        k=draw(st.one_of(st.integers(1, min(budget, 8)), st.integers(1, budget))),
        d_min=draw(
            st.one_of(
                st.sampled_from([0.0, diameter, math.nextafter(diameter, math.inf)]),
                st.integers(1, 104).map(lambda percent: percent * diameter / 100),
                st.floats(0.0, 1.05 * diameter),
            )
        ),
        method=draw(st.sampled_from(sorted(SELECTORS))),
        center_strategy=draw(st.sampled_from(CENTER_STRATEGIES)),
    )
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
    return config, share


def run_grid(config, share, out_dir):
    """The grid's records and the messages of its warnings."""
    make = harness.make_function
    with (
        patch.object(harness, "make_function", lambda *args: Hostile(make(*args), share)),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        records = run_experiment(ExperimentConfig(**{**vars(config), "out_dir": out_dir}))
    return records, [str(w.message) for w in caught]


def cell_problems(config, out, algorithm, messages):
    """What the files of one cell break, read back from ``out``."""
    fid, seed_ = config.functions[0], config.seeds[0]
    name = f"{fid}__{algorithm}__s{seed_}"
    record = json.loads((out / "records" / f"{name}.json").read_text())
    trajectory_file = out / "trajectories" / f"{name}.csv"
    batch_file = out / "batches" / f"{name}.json"
    failures = [m for m in messages if m.startswith(f"{fid}/{algorithm}/seed {seed_} failed: ")]
    infeasible = config.k >= 2 and config.d_min > Box.cube(config.dimension).diameter
    if record["error"]:
        causes = (
            f"d_min={config.d_min} exceeds the box diameter ",
            f"no {config.k} points at distance >= {config.d_min}: ",
        )
        cause = failures[0].split(" failed: ", 1)[1] if len(failures) == 1 else ""
        if algorithm != "ds" or config.k < 2 or not cause.startswith(causes):
            return [f"{name}: failed with {failures}"]
        if trajectory_file.exists() or batch_file.exists():
            return [f"{name}: a failed cell wrote a trajectory or a batch"]
        return []
    if failures or (algorithm == "ds" and infeasible):
        return [f"{name}: an error cell was not recorded as one: {failures}"]
    trajectory = read_trajectory(trajectory_file)
    if len(trajectory) != config.budget:
        return [f"{name}: {len(trajectory)} rows for a budget of {config.budget}"]
    stored = json.loads(batch_file.read_text())
    rows = np.array([p["eval_index"] for p in stored["points"]], dtype=np.int64)
    batch = Batch(
        xs=np.array([p["x"] for p in stored["points"]]).reshape(len(rows), config.dimension),
        fs=np.array([p["f"] for p in stored["points"]], dtype=float),
        eval_index=rows,
        instance_id=trajectory.instance_id[rows],
        k_requested=stored["k_requested"],
        d_min=stored["d_min"],
        method=stored["method"],
    )
    problems = []
    if not 1 <= len(rows) <= config.k or len(set(rows.tolist())) != len(rows):
        problems.append(f"{name}: rows {rows.tolist()} for k={config.k}")
    elif batch.xs.tobytes() != trajectory.xs[rows].tobytes() or not np.array_equal(
        batch.fs, trajectory.fs[rows], equal_nan=True
    ):
        problems.append(f"{name}: the batch's members are not its trajectory's rows")
    # the first row of least f, NaN ranked as +inf
    keys = [math.inf if math.isnan(f) else f for f in trajectory.fs.tolist()]
    if rows[0] != keys.index(min(keys)):
        problems.append(f"{name}: leader row {rows[0]}, best row {keys.index(min(keys))}")
    if not verify_batch(batch, config.d_min, trajectory):
        problems.append(f"{name}: verify_batch refuses the batch")
    if not stored["complete"] == record["complete"] == (len(rows) == config.k):
        problems.append(f"{name}: complete is {record['complete']} with {len(rows)} of {config.k}")
    return problems


def files_of(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@seed(0)
@settings(max_examples=250, deadline=None, database=None)
@given(hostile_grids())
def test_hostile_grids_keep_every_invariant_in_their_files(grid):
    config, share = grid
    with tempfile.TemporaryDirectory() as tmp, patch.object(selection, "WORK_CAP", 2_000):
        out, tables = Path(tmp) / "out", Path(tmp) / "tables"
        records, messages = run_grid(config, share, out)
        assert len(records) == len(ALGORITHMS)
        problems = [p for a in ALGORITHMS for p in cell_problems(config, out, a, messages)]
        assert problems == []
        files = files_of(out)
        assert run_grid(config, share, out)[1] == messages
        assert files_of(out) == files
        read = read_records_dir(out)
        # NaN-safe: a record's losses may be NaN
        assert sorted(json.dumps(asdict(r)) for r in read) == sorted(
            json.dumps(asdict(r)) for r in records
        )
        tables.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            write_records_csv(read, tables / "records.csv")
            write_normalized_csv(normalize_losses(read), tables / "normalized.csv")
            export_plot_data(read, tables / "curves.csv")
        # a complete ds batch that a NaN point fills averages NaN: no denominator
        ds_complete = any(
            r.algorithm == "ds" and r.complete and not math.isnan(r.batch_average())
            for r in read
        )
        skipped = f"no complete ds run for function {config.functions[0]}; group skipped"
        assert [str(w.message) for w in caught] == ([] if ds_complete else [skipped])
        assert len((tables / "records.csv").read_text().splitlines()) == 1 + len(ALGORITHMS)
        normalized = (tables / "normalized.csv").read_text().splitlines()[1:]
        assert len(normalized) == (sum(r.complete for r in read) if ds_complete else 0)
        assert len((tables / "curves.csv").read_text().splitlines()) == 1 + len(ALGORITHMS)
