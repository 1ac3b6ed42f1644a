"""Property tests: run_ds invariants on small cascades, and the block
step of run_ds and run_cma_single against one-candidate reference loops.
Seeded runs of all four generators are pinned to the columns they gave
when each evaluation was stored as its own point, and seeded region logs
to the bytes they had when the log was a list of per-step objects.

Runs cover dimensions 2 to 4, one to three instances, budgets below and
above one full round, every center strategy, and a flat objective that
stops every instance after one generation and so forces restarts; a
tied objective, whose populations often share their best value, has its
own reference comparison.  For the invariants ``d_min`` stays at most 3,
where three instances always fit in [-5, 5]^D; the reference comparison
also draws ``d_min`` near the feasibility edge, where later instances
stall at the 100 * lambda cap.  The block initializer is compared with
the one-draw loop it replaced under small draw caps, so the fallback
decides often.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbatch.baselines
import divbatch.cascade
from cascade_checks import (
    FlatFunction,
    TiedFunction,
    clearance_violations,
    epoch_mean_violations,
    reference_init_diverse_means,
    reference_run_cma_single,
    reference_run_ds,
    row_epochs,
    row_generations,
)
from divbatch import CENTER_STRATEGIES, Box, DsConfig, InfeasibleInitialization
from divbatch import make_function
from divbatch import run_cma_indep, run_cma_single, run_ds, run_random
from trajectory_checks import column_bits, rows_of, trajectory_of, write_trajectory_reference

FUNCTIONS = ("sphere", "rastrigin_sep", "gauss_peaks", "flat")


def objective(function_id, dim):
    if function_id == "flat":
        return FlatFunction(dim)
    return make_function(function_id, dim, 0)


@st.composite
def cascade_runs(draw):
    """(function_id, dimension, DsConfig) for a small run."""
    function_id = draw(st.sampled_from(FUNCTIONS))
    dim = draw(st.integers(2, 4))
    config = DsConfig(
        k=draw(st.integers(1, 3)),
        d_min=draw(st.one_of(st.sampled_from([3.0, 0.0]), st.floats(0.0, 3.0))),
        budget=draw(st.integers(1, 150)),
        center_strategy=draw(st.sampled_from(CENTER_STRATEGIES)),
        seed=draw(st.integers(0, 2**16)),
    )
    return function_id, dim, config


@pytest.mark.filterwarnings("ignore:budget .* is below one full round")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(cascade_runs())
def test_run_ds_spends_the_budget_keeps_clear_and_reruns_equal(run):
    function_id, dim, config = run
    fn = objective(function_id, dim)
    traj, log = run_ds(config, fn)
    assert len(traj) == config.budget
    assert fn.eval_count == config.budget
    assert traj.xs.shape == (config.budget, dim) and traj.instance_id.shape == (config.budget,)
    assert clearance_violations(traj, log, config.d_min) == []
    assert epoch_mean_violations(log, config.d_min) == []
    assert run_ds(config, objective(function_id, dim))[0] == traj


def recorded(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that keeps every object it returns."""
    made = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, name, record)
    return made


def assert_equals_the_reference(config, fn, traj, log, instances):
    """``run_ds``'s trajectory, region log and stop causes are the reference loop's."""
    ref_traj, ref_log, ref_instances = reference_run_ds(config, fn)
    assert column_bits(traj) == column_bits(ref_traj)
    assert np.array_equal(row_epochs(log), ref_log.point_epoch)
    assert np.array_equal(row_generations(log), ref_log.point_generation)
    assert log.total_rejections == ref_log.total_rejections
    assert [i.stop_cause for i in instances] == [i.stop_cause for i in ref_instances]
    columns = ("generation", "instance", "evaluations", "centers", "epoch_starts", "epoch_means")
    for column in columns:
        ours, theirs = getattr(log, column), getattr(ref_log, column)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), column
        assert ours.tobytes() == theirs.tobytes(), column


@st.composite
def init_problems(draw):
    """(k, box, d_min, seed, cap, block) for ``init_diverse_means``: ``cap``
    and ``block`` stand in for its draw cap and block limit, and ``d_min``
    runs past the box diameter."""
    dim = draw(st.integers(1, 4))
    sides = draw(st.lists(st.floats(0.5, 10.0), min_size=dim, max_size=dim))
    box = Box(np.full(dim, -5.0), -5.0 + np.array(sides))
    d_min = draw(
        st.one_of(
            st.sampled_from([0.0, -1.0, box.diameter, math.nan]),
            st.floats(0.0, 1.1).map(lambda share: share * box.diameter),
        )
    )
    return (
        draw(st.integers(0, 8)),
        box,
        d_min,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 64)),
        draw(st.sampled_from([1, 2, 3, 7, 1 << 18])),
    )


def init_outcome(init, *args):
    """The means' shape and bytes, or the error's type and message."""
    try:
        means = np.array(init(*args))
    except InfeasibleInitialization as error:
        return type(error), str(error)
    return means.shape, means.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(init_problems())
def test_init_diverse_means_equals_the_one_draw_loop(problem):
    k, box, d_min, seed, cap, block = problem
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(divbatch.cascade, "_DRAW_CAP", cap)
        monkeypatch.setattr(divbatch.cascade, "_BLOCK_VALUES", block)
        outcome = init_outcome(divbatch.cascade.init_diverse_means, k, box, d_min, rng)
    ref = init_outcome(reference_init_diverse_means, k, box, d_min, ref_rng, cap)
    if ref[0] != InfeasibleInitialization:
        # the reference lists k points of D; an empty list is reshaped
        ref = (k, box.dimension), ref[1]
    assert outcome == ref
    assert rng.random(16).tobytes() == ref_rng.random(16).tobytes()


@st.composite
def edge_runs(draw):
    """Like ``cascade_runs``, with ``d_min`` also near the feasibility edge."""
    function_id = draw(st.sampled_from(FUNCTIONS))
    dim = draw(st.integers(2, 4))
    if draw(st.booleans()):
        # 0.35 to 0.5 of the box diagonal: two or three instances still
        # fit, but the earlier centers' balls cover most of the box
        k = draw(st.integers(2, 3))
        d_min = draw(st.floats(0.35, 0.5)) * 10.0 * dim**0.5
    else:
        k = draw(st.integers(1, 3))
        d_min = draw(st.floats(0.0, 3.0))
    config = DsConfig(
        k=k,
        d_min=d_min,
        # up to 40 is often below one round (k * lambda is 6 to 24 here)
        budget=draw(st.one_of(st.integers(1, 40), st.integers(100, 400))),
        center_strategy=draw(st.sampled_from(CENTER_STRATEGIES)),
        seed=draw(st.integers(0, 2**16)),
    )
    return function_id, dim, config


@pytest.mark.filterwarnings("ignore:budget .* is below one full round")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_runs())
def test_block_step_equals_the_one_candidate_loop(run):
    function_id, dim, config = run
    with pytest.MonkeyPatch.context() as monkeypatch:
        instances = recorded(monkeypatch, divbatch.cascade, "CascadeInstance")
        traj, log = run_ds(config, objective(function_id, dim))
        states = recorded(monkeypatch, divbatch.baselines, "init_cma")
        cma = run_cma_single(objective(function_id, dim), config.budget, config.seed)
    assert_equals_the_reference(config, objective(function_id, dim), traj, log, instances)
    ref_points, ref_causes = reference_run_cma_single(
        objective(function_id, dim), config.budget, config.seed
    )
    assert column_bits(cma) == column_bits(trajectory_of(ref_points))
    assert [s.stop_reason for s in states] == ref_causes


@pytest.mark.parametrize("strategy", CENTER_STRATEGIES)
@pytest.mark.parametrize("dim, k, d_min, seed", [(2, 2, 1.0, 0), (2, 3, 2.0, 1), (3, 3, 1.5, 2)])
def test_tied_populations_equal_the_one_candidate_loop(strategy, dim, k, d_min, seed):
    config = DsConfig(k=k, d_min=d_min, budget=300, center_strategy=strategy, seed=seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        instances = recorded(monkeypatch, divbatch.cascade, "CascadeInstance")
        traj, log = run_ds(config, TiedFunction(dim))
    assert_equals_the_reference(config, TiedFunction(dim), traj, log, instances)


# SHA-256 of the trajectory CSVs these seeded runs gave when every
# producer built one point record per evaluation; the CSV holds every
# bit of the xs, fs and instance_id columns
ROW_AT_A_TIME_DIGESTS = {
    ("ds", 2): "54aafb0b1d790388b1e9a044ada15b45480899225dfcd0925924ea0b76ae150a",
    ("cma", 2): "a8bd9e145864179cf449bfdc94704cdd1ebb5c085ced3da308dd225f9f32eb78",
    ("cma-indep", 2): "4a25f73b994bf31e5567740b573f773f5c6366d283b7be1770e7d63a88466168",
    ("random", 2): "08cbe26247adfbe31ffd4231de5ac5c1ab7983817fbe02c330db961397568119",
    ("ds", 10): "d4d60a1413fed3138dd4ab5d7bdf8fe7bf1fe4fc802d0e9295624a930007808f",
    ("cma", 10): "e4c79acb500a0ac675a3baff630fb810c74661812bd97e788c8ea238e9b1a4b4",
    ("cma-indep", 10): "fec964beda6ef6c27f8aaf94ce663abe15ed40d62cbf40ab0ac0ac1c71e36ad4",
    ("random", 10): "2d323bc16d1c1d9599e445d3bb6f8b2e7d7292ca4a2edf5e2347ac48df6b86f8",
}


@pytest.mark.parametrize("dim", [2, 10])
def test_generators_give_the_row_at_a_time_columns(tmp_path, dim):
    def fn():
        return make_function("rastrigin_sep", dim, 0)

    ds_config = DsConfig(k=3, d_min=2.0 if dim == 2 else 10.0, budget=400, seed=1)
    ds, ds_log = run_ds(ds_config, fn())
    runs = {
        "ds": ds,
        "cma": run_cma_single(fn(), 400, seed=2),
        "cma-indep": run_cma_indep(fn(), 400, 3, seed=3),
        "random": run_random(fn(), 400, seed=4),
    }
    for name, traj in runs.items():
        assert traj.xs.shape == (400, dim) and traj.xs.dtype == np.float64, name
        assert traj.fs.dtype == np.float64 and traj.instance_id.dtype == np.int64, name
        path = tmp_path / f"{name}.csv"
        write_trajectory_reference(rows_of(traj), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == ROW_AT_A_TIME_DIGESTS[name, dim], name
    ref_ds, ref_log, _ = reference_run_ds(ds_config, fn())
    assert column_bits(ds) == column_bits(ref_ds)
    assert np.array_equal(ds_log.evaluations, ref_log.evaluations)
    assert np.array_equal(row_epochs(ds_log), ref_log.point_epoch)
    assert np.array_equal(row_generations(ds_log), ref_log.point_generation)
    ref_cma, _ = reference_run_cma_single(fn(), 400, seed=2)
    assert column_bits(runs["cma"]) == column_bits(trajectory_of(ref_cma))


# SHA-256 of the region-log CSVs these seeded runs gave when the log held
# one snapshot object per instance step; the sphere and flat runs restart,
# and in the d_min=9 run instance 1 stalls
REGION_LOG_RUNS = {
    "sphere": (lambda: make_function("sphere", 2, 0), dict(k=2, d_min=2.0, budget=2000, seed=0)),
    "flat": (lambda: FlatFunction(2), dict(k=2, d_min=1.0, budget=60, seed=0)),
    "stall": (lambda: make_function("sphere", 2, 0), dict(k=2, d_min=9.0, budget=300, seed=0)),
    "rastrigin_sep": (
        lambda: make_function("rastrigin_sep", 3, 0),
        dict(k=3, d_min=1.0, budget=300, seed=2),
    ),
}
REGION_LOG_DIGESTS = {
    ("sphere", "population_best"): "b7b1217ea62b5b01c53046708456f86e5154456d9f3dc0addcd5c4b0ac1a7e56",
    ("sphere", "best_so_far"): "c3472c8581f4f7f556b51ffaf81454ac5fbdf1cabac7400816fcb732dc6565fc",
    ("sphere", "distribution_mean"): "89d151b8dff35200349a79b3d6561f165bb627743f16cdd6e6110d562dc77547",
    ("flat", "population_best"): "3186eee8993b2fe06177521b16fc127157f02caab5d6e8e18cd641b0a29a143d",
    ("stall", "population_best"): "6e7c1f16785daeb871561ab2389027af37c6fb92f1e10a6a1846040f918db553",
    ("stall", "best_so_far"): "0cfd6faa1dce2fedc3b905d721bf3a092a70f8799edcb922d287132659b23634",
    ("stall", "distribution_mean"): "ddb635aef8ea9246fa44171ff1ad531ca950c44e0c70b17a6065dc96c54ccc4a",
    ("rastrigin_sep", "population_best"): "59cd737817aa125f1fb4f754143fd957852306e9f4b50158bdd0cbf2cb7b8ee9",
    ("rastrigin_sep", "best_so_far"): "36c3b1f3bc3fd32f818b8d7444f1cb3add55f94026a1a958e9e275226b423f82",
    ("rastrigin_sep", "distribution_mean"): "934651df9bd51b72a02369c20a1e55e6a87868844ee17753813ef532f784cdc4",
}


@pytest.mark.parametrize("run, strategy", sorted(REGION_LOG_DIGESTS))
def test_region_logs_keep_their_bytes(tmp_path, run, strategy):
    make_fn, kwargs = REGION_LOG_RUNS[run]
    _, log = run_ds(DsConfig(center_strategy=strategy, **kwargs), make_fn())
    if run in ("sphere", "flat"):
        assert len(log.epoch_starts) > 1
    path = tmp_path / "regions.csv"
    log.write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REGION_LOG_DIGESTS[run, strategy]
