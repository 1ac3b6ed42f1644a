"""Property tests: run_ds invariants on small cascades, and the block
step of run_ds and run_cma_single against one-candidate reference loops.

Runs cover dimensions 2 to 4, one to three instances, budgets below and
above one full round, every center strategy, and a flat objective that
stops every instance after one generation and so forces restarts.  For
the invariants ``d_min`` stays at most 3, where three instances always
fit in [-5, 5]^D; the reference comparison also draws ``d_min`` near the
feasibility edge, where later instances stall at the 100 * lambda cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbatch.baselines
import divbatch.cascade
from cascade_checks import (
    FlatFunction,
    clearance_violations,
    epoch_mean_violations,
    reference_run_cma_single,
    reference_run_ds,
)
from divbatch import CENTER_STRATEGIES, DsConfig, make_function, run_cma_single, run_ds

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
    traj, log = run_ds(config, fn, return_log=True)
    assert len(traj) == config.budget
    assert fn.eval_count == config.budget
    assert [p.eval_index for p in traj.points] == list(range(config.budget))
    assert clearance_violations(traj, log, config.d_min) == []
    assert epoch_mean_violations(log, config.d_min) == []
    assert run_ds(config, objective(function_id, dim)) == traj


def recorded(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that keeps every object it returns."""
    made = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, name, record)
    return made


def bits(points):
    """Every stored bit of the points: eval_index, instance, x and f."""
    return [
        (p.eval_index, p.instance_id, p.x.tobytes(), type(p.f), np.float64(p.f).tobytes())
        for p in points
    ]


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
        traj, log = run_ds(config, objective(function_id, dim), return_log=True)
        states = recorded(monkeypatch, divbatch.baselines, "init_cma")
        cma_points = run_cma_single(objective(function_id, dim), config.budget, config.seed).points
    ref_traj, ref_log, ref_instances = reference_run_ds(config, objective(function_id, dim))
    assert bits(traj.points) == bits(ref_traj.points)
    assert log.total_rejections == ref_log.total_rejections
    assert [i.stop_cause for i in instances] == [i.stop_cause for i in ref_instances]
    assert [(s.generation, s.instance, s.center.tobytes()) for s in log.snapshots] == [
        (s.generation, s.instance, s.center.tobytes()) for s in ref_log.snapshots
    ]
    ref_points, ref_causes = reference_run_cma_single(
        objective(function_id, dim), config.budget, config.seed
    )
    assert bits(cma_points) == bits(ref_points)
    assert [s.stop_reason for s in states] == ref_causes
