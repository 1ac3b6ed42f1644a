"""Experiment harness tests: metrics, grid runner, tables, plot exports."""

from __future__ import annotations

import gc
import json
import math
import shutil
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from divbatch import (
    Batch,
    EmptyBatch,
    EmptyPortfolio,
    ExperimentConfig,
    InvalidDimension,
    MixedProtocols,
    RunRecord,
    UnknownFunction,
    clearing_select,
    compute_metrics,
    export_plot_data,
    make_function,
    normalize_losses,
    read_records_dir,
    read_trajectory,
    run_experiment,
    write_normalized_csv,
    write_records_csv,
)
from divbatch import harness


def batch_of(fs, order):
    """Batch whose members, rows ``order`` of points (i, 0) with f = fs[i], lead with order[0].

    It requests one member per value of ``fs``, so it is complete when
    ``order`` holds them all.
    """
    order = np.asarray(order, dtype=np.int64)
    return Batch(
        xs=np.column_stack([order.astype(float), np.zeros(len(order))]),
        fs=np.asarray(fs, dtype=float)[order],
        eval_index=order,
        instance_id=np.zeros(len(order), dtype=np.int64),
        k_requested=len(fs),
        d_min=1.0,
        method="clearing",
    )


def small_batch(fs, leader_index=0):
    """Batch whose points have the given raw objective values."""
    order = list(range(len(fs)))
    order.insert(0, order.pop(leader_index))
    return batch_of(fs, order)


def record(function_id, algorithm, seed, batch_losses, complete=True):
    losses = sorted(batch_losses)
    return RunRecord(
        function_id=function_id,
        algorithm=algorithm,
        seed=seed,
        dimension=2,
        budget=100,
        k=len(losses),
        d_min=1.0,
        method="clearing",
        center_strategy="population_best",
        complete=complete,
        error=False,
        leader_loss=losses[0] if losses else float("nan"),
        batch_losses=losses,
    )


def test_metrics_hand_example(tmp_path):
    fn = make_function("sphere", 2, 0)
    batch = small_batch([fn.f_opt + 1, fn.f_opt + 2, fn.f_opt + 3])
    leader, losses = compute_metrics(batch, fn)
    assert leader == pytest.approx(1.0)
    assert losses == pytest.approx([1.0, 2.0, 3.0])
    # plain floats: the records CSV holds each value's repr
    assert all(type(v) is float for v in [leader, *losses])
    rec = replace(record("sphere", "ds", 0, losses), leader_loss=leader)
    write_records_csv([rec], tmp_path / "records.csv")
    export_plot_data([rec], tmp_path / "curves.csv")
    assert "np." not in (tmp_path / "records.csv").read_text()
    assert (tmp_path / "curves.csv").read_text().splitlines()[1] == "sphere,ds,1,1.0,1.5,2.0"


def test_metrics_leader_is_first_point_not_best():
    # the leader stays the batch's designated first point even when
    # another member happens to score better
    fn = make_function("sphere", 2, 0)
    batch = small_batch([fn.f_opt + 5, fn.f_opt + 1], leader_index=0)
    leader, losses = compute_metrics(batch, fn)
    assert leader == pytest.approx(5.0)
    assert losses == pytest.approx([1.0, 5.0])


def test_metrics_single_point():
    fn = make_function("sphere", 2, 0)
    leader, losses = compute_metrics(small_batch([fn.f_opt + 4]), fn)
    assert (leader, losses) == (pytest.approx(4.0), pytest.approx([4.0]))


def test_exported_curves_are_nondecreasing(tmp_path):
    # each seed's losses are sorted, so its running average, and the seed
    # mean of those averages, never falls as the batch grows
    fn = make_function("sphere", 3, 1)
    rng = np.random.default_rng(0)
    path = tmp_path / "curves.csv"
    for _ in range(20):
        k = int(rng.integers(1, 8))
        records = []
        for seed in range(int(rng.integers(1, 4))):
            fs = fn.f_opt + rng.uniform(0, 50, size=k)
            leader, losses = compute_metrics(small_batch(fs), fn)
            records.append(replace(record("sphere", "ds", seed, losses), leader_loss=leader))
        export_plot_data(records, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[:3] == ["sphere", "ds", str(len(records))]
        curve = [float(v) for v in row[3:]]
        assert len(curve) == k
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))


def test_metrics_reject_empty_batch():
    fn = make_function("sphere", 2, 0)
    empty = batch_of([1.0, 2.0, 3.0], [])
    assert not empty.complete
    with pytest.raises(EmptyBatch):
        compute_metrics(empty, fn)


def test_normalize_hand_example():
    records = [
        record("sphere", "ds", 0, [2.0, 2.0]),
        record("sphere", "random", 0, [3.0, 3.0]),
    ]
    rows = normalize_losses(records)
    by_algo = {r["algorithm"]: r for r in rows}
    assert by_algo["ds"]["normalized"] == pytest.approx(1.0)
    assert by_algo["random"]["normalized"] == pytest.approx(1.5)


def test_normalize_uses_best_ds_seed_per_function():
    records = [
        record("sphere", "ds", 0, [4.0]),
        record("sphere", "ds", 1, [2.0]),
        record("sphere", "random", 0, [6.0]),
    ]
    rows = {(r["algorithm"], r["seed"]): r["normalized"] for r in normalize_losses(records)}
    assert rows[("ds", 0)] == pytest.approx(2.0)
    assert rows[("ds", 1)] == pytest.approx(1.0)
    assert rows[("random", 0)] == pytest.approx(3.0)


def test_normalize_skips_incomplete_and_groups_without_ds():
    records = [
        record("sphere", "ds", 0, [2.0]),
        record("sphere", "random", 0, [1.0], complete=False),
        record("rastrigin_sep", "random", 0, [1.0]),
    ]
    with pytest.warns(UserWarning, match="rastrigin_sep"):
        rows = normalize_losses(records)
    assert {(r["function"], r["algorithm"]) for r in rows} == {("sphere", "ds")}


def test_normalize_with_a_zero_ds_denominator():
    # a ds batch that reached the optimum exactly leaves nothing to divide by:
    # a zero average is as good as it and reads 1.0, any loss reads inf
    records = [
        record("sphere", "ds", 0, [0.0, 0.0]),
        record("sphere", "ds", 1, [0.0, 3.0]),
        record("sphere", "random", 0, [0.0, 0.0]),
        record("sphere", "cma", 0, [0.0, 1e-300]),
    ]
    rows = {(r["algorithm"], r["seed"]): r["normalized"] for r in normalize_losses(records)}
    assert rows == {
        ("ds", 0): 1.0,
        ("ds", 1): math.inf,
        ("random", 0): 1.0,
        ("cma", 0): math.inf,
    }


def small_config(tmp_path=None, **overrides):
    base = ExperimentConfig(
        functions=["sphere", "rastrigin_sep"],
        algorithms=["ds", "random"],
        seeds=[0, 1],
        dimension=2,
        budget=80,
        k=2,
        d_min=1.0,
        out_dir=None if tmp_path is None else tmp_path / "out",
    )
    return replace(base, **overrides)


def test_grid_shape_and_record_stamps():
    records = run_experiment(small_config())
    assert len(records) == 8
    cells = {(r.function_id, r.algorithm, r.seed) for r in records}
    assert len(cells) == 8
    for r in records:
        assert r.dimension == 2 and r.budget == 80 and r.k == 2
        assert not r.error
        assert len(r.batch_losses) == 2
        # only ds reads the center strategy, so only its records hold one
        assert r.center_strategy == ("population_best" if r.algorithm == "ds" else None)
        assert r.leader_loss >= 0


def test_grid_persists_artifacts(tmp_path):
    cfg = small_config(tmp_path)
    run_experiment(cfg)
    out = tmp_path / "out"
    names = {f"{fid}__{algo}__s{seed}" for fid in cfg.functions for algo in cfg.algorithms for seed in cfg.seeds}
    assert {p.stem for p in (out / "trajectories").glob("*.csv")} == names
    assert {p.stem for p in (out / "batches").glob("*.json")} == names
    assert {p.stem for p in (out / "records").glob("*.json")} == names
    one = json.loads((out / "batches" / "sphere__ds__s0.json").read_text())
    assert one["method"] == "clearing" and len(one["points"]) == 2


def test_failed_cell_is_recorded_not_fatal(tmp_path):
    # d_min larger than the box diameter makes initialization impossible
    cfg = small_config(tmp_path, functions=["sphere"], algorithms=["ds", "random"], seeds=[0], d_min=50.0)
    with pytest.warns(UserWarning, match="sphere/ds"):
        records = run_experiment(cfg)
    by_algo = {r.algorithm: r for r in records}
    assert by_algo["ds"].error and not by_algo["ds"].complete
    assert math.isnan(by_algo["ds"].leader_loss) and by_algo["ds"].batch_losses == []
    # the random cell still selects a (possibly incomplete) batch
    assert not math.isnan(by_algo["random"].leader_loss)
    # a record file exists even for the failed cell, a trajectory does not
    assert (tmp_path / "out" / "records" / "sphere__ds__s0.json").exists()
    assert not (tmp_path / "out" / "trajectories" / "sphere__ds__s0.csv").exists()


def test_a_one_instance_ds_cell_runs_with_d_min_beyond_the_box(tmp_path):
    # one mean needs no distance: the cell selects a complete 1-batch
    cfg = small_config(
        tmp_path, functions=["sphere"], algorithms=["ds"], seeds=[0], budget=50, k=1, d_min=20.0
    )
    (ds,) = run_experiment(cfg)
    assert not ds.error and ds.complete and len(ds.batch_losses) == 1
    out = tmp_path / "out"
    assert len(read_trajectory(out / "trajectories" / "sphere__ds__s0.csv")) == 50


@pytest.mark.parametrize(
    "change, message, error",
    [
        ({"k": 0}, "k must be >= 1, got 0", ValueError),
        ({"k": -2}, "k must be >= 1, got -2", ValueError),
        ({"method": "nope"}, "method must be one of .* got 'nope'", ValueError),
        ({"budget": 0}, "budget must be >= 1, got 0", EmptyPortfolio),
        ({"budget": -5}, "budget must be >= 1, got -5", EmptyPortfolio),
        ({"dimension": 1}, "dimension must be >= 2, got 1", InvalidDimension),
        ({"functions": ["sphere", "nope"]}, "unknown function ids \\['nope'\\]", UnknownFunction),
        ({"center_strategy": "nope"}, "unknown center strategy 'nope'", ValueError),
        ({"d_min": math.nan}, "d_min must not be NaN", ValueError),
        ({"algorithms": ["ds", "nope"]}, "unknown algorithms \\['nope'\\]", ValueError),
        ({"workers": 0}, "workers must be >= 1, got 0", ValueError),
        ({"workers": -3}, "workers must be >= 1, got -3", ValueError),
        ({"workers": True}, "workers must be an int, got True", ValueError),
        ({"workers": 2.5}, "workers must be an int, got 2.5", ValueError),
        ({"seeds": [-1]}, "seed must be >= 0, got -1", ValueError),
        ({"seeds": [0, 1.5]}, "seed must be an int, got 1.5", ValueError),
        ({"seeds": [True]}, "seed must be an int, got True", ValueError),
        ({"budget": 30.5}, "budget must be an int, got 30.5", ValueError),
        ({"budget": True}, "budget must be an int, got True", ValueError),
        ({"k": 2.5}, "k must be an int, got 2.5", ValueError),
        ({"dimension": 2.5}, "dimension must be an int, got 2.5", InvalidDimension),
        ({"seeds": [], "budget": 30.5}, "budget must be an int, got 30.5", ValueError),
        ({"functions": ["sphere", "sphere"]}, "functions lists 'sphere' more than once", ValueError),
        ({"algorithms": ["ds", "random", "ds"]}, "algorithms lists 'ds' more than once", ValueError),
        ({"seeds": [0, 1, 0]}, "seeds lists 0 more than once", ValueError),
        ({"seeds": [np.int64(2), 2]}, "seeds lists 2 more than once", ValueError),
        ({"functions": [], "dimension": 1}, "dimension must be >= 2, got 1", InvalidDimension),
        ({"d_min": "10"}, "d_min must be a real number, got '10'", ValueError),
        ({"d_min": True}, "d_min must be a real number, got True", ValueError),
    ],
)
def test_a_bad_grid_is_refused_when_its_config_is_built(tmp_path, change, message, error):
    # unchecked, k=0 fails the ds cells one by one and then raises out of
    # the first random cell's selector; an unknown method raises KeyError
    # only after the first cell's generation.  A budget below 1, a
    # dimension below 2 or an unknown function id would raise out of a
    # cell after earlier cells had written their files.  An unknown center
    # strategy, a NaN d_min or an unknown algorithm fails cell by cell.
    # A workers of 0, -3 or True ran serially without a word, and 2.5
    # created the output directories before the pool raised TypeError.
    # A seed of -1 or 1.5, a budget of 30.5 or a k of 2.5 ran every cell
    # (for k, every ds cell) as an error record with its file; a seed of
    # True wrote sphere__ds__sTrue files, a budget of True ran with a
    # budget of 1, and a dimension of 2.5 made the output directories
    # before make_function raised TypeError.  With no seeds listed the
    # other run integers are still checked.  A repeated function id,
    # algorithm or seed ran its cells twice, the second run overwriting
    # the first one's files.
    with pytest.raises(error, match=message):
        small_config(tmp_path, **change)
    assert not (tmp_path / "out").exists()


def test_numpy_run_integers_run_the_grid_of_python_ones(tmp_path):
    # a numpy int used to reach the record file, which json refused after
    # the cell's trajectory was written
    numpy = dict(seeds=[np.int64(0)], dimension=np.int64(2), budget=np.int32(40), k=np.int64(2))
    python = dict(seeds=[0], dimension=2, budget=40, k=2)
    for name, change in (("numpy", numpy), ("python", python)):
        run_experiment(small_config(tmp_path / name, **change))
    for sub in ("trajectories", "batches", "records"):
        ours = sorted((tmp_path / "numpy" / "out" / sub).iterdir())
        theirs = sorted((tmp_path / "python" / "out" / sub).iterdir())
        assert [p.name for p in ours] == [p.name for p in theirs] and len(ours) == 4, sub
        assert [p.read_bytes() for p in ours] == [p.read_bytes() for p in theirs], sub


def test_a_built_grid_config_cannot_be_changed():
    # k=0 set after the checks would fail the ds cells one by one and then
    # raise out of the first random cell's selector, mid-grid
    cfg = small_config()
    with pytest.raises(FrozenInstanceError):
        cfg.k = 0
    assert cfg.k == 2


def test_reruns_persist_byte_identical_files(tmp_path):
    for run in ("a", "b"):
        run_experiment(small_config(tmp_path / run, seeds=[0]))
    for sub in ("trajectories", "batches", "records"):
        first = sorted((tmp_path / "a" / "out" / sub).iterdir())
        second = sorted((tmp_path / "b" / "out" / sub).iterdir())
        assert [p.name for p in first] == [p.name for p in second] and first, sub
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_parallel_workers_match_serial(tmp_path):
    serial = run_experiment(small_config(tmp_path / "serial", seeds=[0]))
    parallel = run_experiment(small_config(tmp_path / "parallel", seeds=[0], workers=2))
    assert serial == parallel
    for sub in ("trajectories", "batches", "records"):
        first = sorted((tmp_path / "serial" / "out" / sub).iterdir())
        second = sorted((tmp_path / "parallel" / "out" / sub).iterdir())
        assert [p.name for p in first] == [p.name for p in second] and len(first) == 4, sub
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_a_failed_cells_warning_reaches_the_caller_at_any_worker_count(tmp_path):
    texts = {}
    for workers in (1, 2):
        # only the ds cells fail: no two means of [-5, 5]^2 are 50 apart
        cfg = small_config(tmp_path / str(workers), functions=["sphere"], d_min=50.0, workers=workers)
        with pytest.warns(UserWarning) as caught:
            run_experiment(cfg)
        texts[workers] = [str(w.message) for w in caught]
    assert len(texts[1]) == 2 and all("failed" in text for text in texts[1])
    assert texts[1] == texts[2]


def test_a_grid_that_raises_still_shows_the_earlier_cells_warnings(tmp_path, monkeypatch):
    run_cell = harness._run_cell
    calls = []

    def second_raises(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        return run_cell(*args)

    monkeypatch.setattr(harness, "_run_cell", second_raises)
    cfg = small_config(tmp_path, functions=["sphere"], algorithms=["ds"], d_min=50.0)
    with pytest.warns(UserWarning, match="sphere/ds/seed 0 failed"), pytest.raises(OSError):
        run_experiment(cfg)


def test_an_empty_grid_returns_no_records(tmp_path):
    for workers in (1, 2):
        assert run_experiment(small_config(tmp_path, functions=[], workers=workers)) == []


def test_the_grid_keeps_one_cells_outputs_alive_at_a_time(tmp_path, monkeypatch):
    run_cell = harness._run_cell
    finished = []
    alive_at_start = []

    def tracked(*args):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in finished))
        record, trajectory, batch = run_cell(*args)
        finished.append(weakref.ref(trajectory))
        return record, trajectory, batch

    monkeypatch.setattr(harness, "_run_cell", tracked)
    records = run_experiment(small_config(tmp_path))
    assert len(records) == len(alive_at_start) == 8
    assert alive_at_start == [0] * 8


def test_records_round_trip_through_directory(tmp_path):
    cfg = small_config(tmp_path, functions=["sphere"], seeds=[0])
    written = run_experiment(cfg)
    loaded = read_records_dir(tmp_path / "out")
    assert len(loaded) == len(written)
    key = lambda r: (r.function_id, r.algorithm, r.seed)
    for a, b in zip(sorted(written, key=key), sorted(loaded, key=key)):
        assert a == b
    with pytest.raises(FileNotFoundError):
        read_records_dir(tmp_path / "nowhere")


def test_a_grid_of_another_protocol_is_refused_before_it_makes_a_directory(tmp_path):
    held = small_config(tmp_path, functions=["sphere"], algorithms=["random"], seeds=[0])
    run_experiment(held)
    for sub in ("trajectories", "batches"):
        shutil.rmtree(tmp_path / "out" / sub)
    with pytest.raises(MixedProtocols, match="on k: 2 in sphere__random__s0.json, 3 in "):
        run_experiment(replace(held, k=3, seeds=[1]))
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["records"]
    # another center strategy is the same protocol where only ds would read it
    run_experiment(replace(held, center_strategy="best_so_far", seeds=[1]))


def test_a_record_file_holding_cum_avg_is_refused(tmp_path):
    # a record holds no curve, since report derives it from the losses; a
    # record file that holds one is refused, not read with the field dropped
    run_experiment(small_config(tmp_path, functions=["sphere"], algorithms=["ds"], seeds=[0]))
    path = tmp_path / "out" / "records" / "sphere__ds__s0.json"
    fields = json.loads(path.read_text())
    assert "cum_avg" not in fields
    path.write_text(json.dumps({**fields, "cum_avg": [1.0, 1.5]}))
    with pytest.raises(TypeError, match="cum_avg"):
        read_records_dir(tmp_path / "out")


def test_records_csv_layout(tmp_path):
    records = [record("sphere", "ds", 0, [1.0, 2.5])]
    records.append(replace(records[0], algorithm="random", center_strategy=None))
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "function_id"
    # records hold no timings and no curves (report derives them), so
    # reruns write the same bytes
    assert header[-2:] == ["leader_loss", "batch_losses"]
    assert header[header.index("method") + 1] == "center_strategy"
    row = lines[1].split(",")
    assert row[:3] == ["sphere", "ds", "0"]
    assert row[header.index("complete")] == "1"
    assert row[header.index("error")] == "0"
    assert "failure" not in header
    assert row[header.index("batch_losses")] == "1.0;2.5"
    assert row[header.index("center_strategy")] == "population_best"
    # a record without a center strategy leaves its cell empty
    assert lines[2].split(",")[header.index("center_strategy")] == ""


def test_normalized_csv_layout(tmp_path):
    rows = normalize_losses([record("sphere", "ds", 0, [2.0]), record("sphere", "random", 0, [3.0])])
    path = tmp_path / "normalized.csv"
    write_normalized_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "function,algorithm,seed,batch_avg_loss,normalized"
    assert lines[1].split(",")[:3] == ["sphere", "ds", "0"]


def test_curve_export_matches_recomputation(tmp_path):
    records = [
        record("sphere", "ds", 0, [1.0, 3.0]),
        record("sphere", "ds", 1, [2.0, 4.0]),
        record("sphere", "random", 0, [5.0, 7.0]),
    ]
    path = tmp_path / "curves.csv"
    export_plot_data(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "function,algorithm,n_complete,avg_1,avg_2"
    table = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
    ds = table[("sphere", "ds")]
    assert int(ds[0]) == 2
    # seed curves are (1, 2) and (2, 3); their mean is (1.5, 2.5)
    assert [float(v) for v in ds[1:]] == pytest.approx([1.5, 2.5])
    assert int(table[("sphere", "random")][0]) == 1


def test_curve_export_counts_zero_complete(tmp_path):
    records = [record("sphere", "random", 0, [1.0, 2.0], complete=False)]
    path = tmp_path / "curves.csv"
    export_plot_data(records, path)
    assert path.read_text().splitlines()[1] == "sphere,random,0,,"


def test_curve_export_of_no_records_is_the_bare_header(tmp_path):
    path = tmp_path / "curves.csv"
    export_plot_data([], path)
    assert path.read_text() == "function,algorithm,n_complete\n"


def test_selection_method_flows_into_batches(tmp_path):
    cfg = small_config(tmp_path, functions=["sphere"], algorithms=["random"], seeds=[0], method="greedy")
    records = run_experiment(cfg)
    assert records[0].method == "greedy"
    one = json.loads((tmp_path / "out" / "batches" / "sphere__random__s0.json").read_text())
    assert one["method"] == "greedy"


def test_harness_batches_agree_with_direct_selection(tmp_path):
    cfg = small_config(tmp_path, functions=["sphere"], algorithms=["random"], seeds=[3])
    run_experiment(cfg)
    traj = read_trajectory(tmp_path / "out" / "trajectories" / "sphere__random__s3.csv")
    direct = clearing_select(traj, cfg.k, cfg.d_min)
    one = json.loads((tmp_path / "out" / "batches" / "sphere__random__s3.json").read_text())
    assert [p["eval_index"] for p in one["points"]] == direct.eval_index.tolist()
