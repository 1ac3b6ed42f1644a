"""Every count, size and seed a public entry point takes follows one rule.

The value must be a Python or numpy int (a bool is not one) of at least the
argument's floor.  Anything else raises the site's error class with one of
``trajectory._check_int``'s two messages, before any work is done.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from divbatch import cli
from divbatch.baselines import run_cma_indep, run_cma_single, run_random
from divbatch.cascade import DsConfig
from divbatch.cma import CmaParams
from divbatch.harness import ExperimentConfig
from divbatch.objectives import InvalidDimension, make_function
from divbatch.selection import clearing_select, exact_select, greedy_select
from divbatch.trajectory import EmptyPortfolio, Trajectory

PORTFOLIO = Trajectory(
    xs=np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
    fs=np.array([0.0, 1.0, 2.0]),
    instance_id=np.zeros(3, dtype=np.int64),
)


def sphere():
    return make_function("sphere", 2, 0)


def run_with_runs(runs, tmp_path):
    argv = "run --algo random --function sphere --dim 2 --budget 10 --k 2 --dmin 1.0 --seed 0"
    args = cli._build_parser().parse_args([*argv.split(), "--out", str(tmp_path / "out")])
    args.runs = runs
    return args.handler(args)


# (id, call(value, tmp_path), argument name, floor, error, error below the floor)
ENTRY_POINTS = [
    ("DsConfig-k", lambda v, _: DsConfig(v, 1.0, 10), "k", 1, ValueError, ValueError),
    ("DsConfig-budget", lambda v, _: DsConfig(2, 1.0, v), "budget", 1, ValueError, EmptyPortfolio),
    ("DsConfig-seed", lambda v, _: DsConfig(2, 1.0, 10, seed=v), "seed", 0, ValueError, ValueError),
    (
        "make_function-dimension",
        lambda v, _: make_function("sphere", v, 0),
        "dimension",
        2,
        InvalidDimension,
        InvalidDimension,
    ),
    ("CmaParams-dimension", lambda v, _: CmaParams(v), "dimension", 1, ValueError, ValueError),
    ("make_function-seed", lambda v, _: make_function("sphere", 2, v), "seed", 0, ValueError, ValueError),
    ("run_random-budget", lambda v, _: run_random(sphere(), v), "budget", 0, ValueError, ValueError),
    ("run_random-seed", lambda v, _: run_random(sphere(), 5, v), "seed", 0, ValueError, ValueError),
    ("run_cma_single-budget", lambda v, _: run_cma_single(sphere(), v), "budget", 0, ValueError, ValueError),
    ("run_cma_single-seed", lambda v, _: run_cma_single(sphere(), 5, v), "seed", 0, ValueError, ValueError),
    ("run_cma_indep-budget", lambda v, _: run_cma_indep(sphere(), v, 2), "budget", 0, ValueError, ValueError),
    ("run_cma_indep-k", lambda v, _: run_cma_indep(sphere(), 5, v), "k", 1, ValueError, ValueError),
    ("run_cma_indep-seed", lambda v, _: run_cma_indep(sphere(), 5, 2, v), "seed", 0, ValueError, ValueError),
    ("clearing_select-k", lambda v, _: clearing_select(PORTFOLIO, v, 1.0), "k", 1, ValueError, ValueError),
    ("greedy_select-k", lambda v, _: greedy_select(PORTFOLIO, v, 1.0), "k", 1, ValueError, ValueError),
    ("exact_select-k", lambda v, _: exact_select(PORTFOLIO, v, 1.0), "k", 1, ValueError, ValueError),
    (
        "ExperimentConfig-workers",
        lambda v, _: ExperimentConfig(["sphere"], ["ds"], [0], 2, 20, 2, 1.0, workers=v),
        "workers",
        1,
        ValueError,
        ValueError,
    ),
    ("run--runs", run_with_runs, "--runs", 1, ValueError, ValueError),
]

NOT_INTS = [True, 2.5, np.float64(2.0), "1"]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize(
    "call, name, error", [(c, n, e) for _, c, n, _, e, _ in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_an_entry_point_refuses_a_value_that_is_not_an_int(tmp_path, call, name, error, value):
    with pytest.raises(error, match=f"^{re.escape(f'{name} must be an int, got {value!r}')}$") as info:
        call(value, tmp_path)
    assert info.type is error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "call, name, floor, error",
    [(c, n, f, e) for _, c, n, f, _, e in ENTRY_POINTS],
    ids=[e[0] for e in ENTRY_POINTS],
)
def test_an_entry_point_refuses_a_value_below_its_floor(tmp_path, call, name, floor, error):
    with pytest.raises(error, match=f"^{re.escape(f'{name} must be >= {floor}, got {floor - 1}')}$") as info:
        call(floor - 1, tmp_path)
    assert info.type is error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run", [run_random, run_cma_single, lambda fn, b, s: run_cma_indep(fn, b, 2, s)])
def test_the_generators_take_a_numpy_int_seed(run):
    assert run(sphere(), 12, np.int64(3)) == run(sphere(), 12, 3)
