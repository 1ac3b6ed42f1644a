"""Property tests: run_ds invariants on small cascades.

Runs cover dimensions 2 to 4, one to three instances, budgets below and
above one full round, every center strategy, and a flat objective that
stops every instance after one generation and so forces restarts.
``d_min`` stays at most 3, where three instances always fit in [-5, 5]^D.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_checks import FlatFunction, clearance_violations, epoch_mean_violations
from divbatch import CENTER_STRATEGIES, DsConfig, make_function, run_ds

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
