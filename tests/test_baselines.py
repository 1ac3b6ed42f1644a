"""Baseline portfolio generator tests."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest

from cascade_checks import FlatFunction
from divbatch import make_function, run_cma_indep, run_cma_single, run_random


def test_random_length_and_stamps():
    fn = make_function("sphere", 3, 0)
    traj = run_random(fn, 25, seed=1)
    assert len(traj) == 25 and traj.xs.shape == (25, 3)
    assert (traj.instance_id == -1).all()
    assert all(fn.box.contains(x) for x in traj.xs)
    assert fn.eval_count == 25


def test_random_single_point_budget():
    fn = make_function("sphere", 2, 0)
    assert len(run_random(fn, 1, seed=0)) == 1


def test_random_moments_are_uniform():
    fn = make_function("sphere", 2, 0)
    xs = run_random(fn, 10_000, seed=3).xs
    # mean within 4 standard errors, sigma = 10 / sqrt(12)
    tol = 4.0 * (10.0 / np.sqrt(12.0)) / 100.0
    assert np.all(np.abs(xs.mean(axis=0)) < tol)
    assert np.all(np.abs(xs.var(axis=0) - 100.0 / 12.0) < 1.0)


def test_random_is_deterministic():
    fn_a = make_function("griewank", 4, 2)
    fn_b = make_function("griewank", 4, 2)
    assert run_random(fn_a, 64, seed=9) == run_random(fn_b, 64, seed=9)


@pytest.mark.parametrize("budget", [8, 100, 137])
def test_cma_single_budget_exactness(budget):
    fn = make_function("rastrigin_sep", 3, 0)
    traj = run_cma_single(fn, budget, seed=0)
    assert len(traj) == budget and traj.xs.shape == (budget, 3)
    assert (traj.instance_id == 0).all()
    assert all(fn.box.contains(x) for x in traj.xs)


def test_cma_single_is_deterministic():
    fn_a = make_function("discus", 3, 1)
    fn_b = make_function("discus", 3, 1)
    assert run_cma_single(fn_a, 150, seed=4) == run_cma_single(fn_b, 150, seed=4)


def test_cma_single_restarts_on_a_flat_function():
    fn = FlatFunction()
    traj = run_cma_single(fn, 120, seed=0)
    assert len(traj) == 120
    assert fn.eval_count == 120
    # with the function tolerance firing every few generations, the run
    # must chain several restart legs to spend the budget
    assert len({tuple(x) for x in np.round(traj.xs, 6)}) > 10


def test_cma_single_converges_on_the_sphere():
    hits = 0
    for seed in range(5):
        fn = make_function("sphere", 5, 0)
        traj = run_cma_single(fn, 2000, seed=seed)
        hits += fn.loss(traj.fs[traj.best()]) < 1e-8
    assert hits >= 4


def test_indep_budget_split():
    fn = make_function("sphere", 3, 0)
    traj = run_cma_indep(fn, 100, 3, seed=0)
    assert len(traj) == 100 and traj.xs.shape == (100, 3)
    counts = Counter(traj.instance_id.tolist())
    assert counts == {0: 34, 1: 33, 2: 33}


def test_indep_with_one_instance_equals_single():
    fn_a = make_function("ellipsoid", 3, 0)
    fn_b = make_function("ellipsoid", 3, 0)
    assert run_cma_indep(fn_a, 90, 1, seed=7) == run_cma_single(fn_b, 90, seed=7)


def test_indep_instances_are_decorrelated():
    fn = make_function("sphere", 3, 0)
    traj = run_cma_indep(fn, 60, 2, seed=0)
    first = traj.xs[traj.instance_id == 0]
    second = traj.xs[traj.instance_id == 1]
    assert not np.array_equal(first[0], second[0])


def test_indep_is_deterministic():
    fn_a = make_function("gauss_peaks", 3, 5)
    fn_b = make_function("gauss_peaks", 3, 5)
    assert run_cma_indep(fn_a, 120, 3, seed=2) == run_cma_indep(fn_b, 120, 3, seed=2)


def test_cma_indep_rejects_fewer_than_one_run():
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        run_cma_indep(make_function("sphere", 2, 0), 100, 0)


@pytest.mark.parametrize(
    "k, message",
    [
        (True, "k must be an int, got True"),
        (2.5, "k must be an int, got 2.5"),
        (np.float64(2.0), "k must be an int, got np.float64(2.0)"),
        (-1, "k must be >= 1, got -1"),
    ],
)
def test_cma_indep_names_a_bad_k(k, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_cma_indep(make_function("sphere", 2, 0), 100, k)


def test_cma_indep_takes_a_numpy_k():
    fn_a, fn_b = make_function("sphere", 2, 0), make_function("sphere", 2, 0)
    assert run_cma_indep(fn_a, 40, np.int64(3), seed=1) == run_cma_indep(fn_b, 40, 3, seed=1)


def run_cma_pair(fn, budget):
    return run_cma_indep(fn, budget, 2)


GENERATORS = [run_random, run_cma_single, run_cma_pair]


@pytest.mark.parametrize("run", GENERATORS)
@pytest.mark.parametrize("budget", [-1, 2.5, True, np.float64(10.0), "10"])
def test_generators_name_a_budget_that_is_not_an_int_of_at_least_zero(run, budget):
    fn = make_function("sphere", 2, 0)
    if budget == -1:
        message = "^budget must be >= 0, got -1$"
    else:
        message = f"^budget must be an int, got {re.escape(repr(budget))}$"
    with pytest.raises(ValueError, match=message):
        run(fn, budget)
    assert fn.eval_count == 0


@pytest.mark.parametrize("run", GENERATORS)
def test_generators_return_an_empty_trajectory_for_budget_zero(run):
    traj = run(make_function("sphere", 2, 0), 0)
    assert len(traj) == 0 and traj.xs.shape == (0, 2)


def test_cma_indep_with_more_runs_than_budget_spends_it_exactly():
    # k > budget hands the later runs a share of 0
    traj = run_cma_indep(make_function("sphere", 2, 0), 2, 5, seed=0)
    assert traj.instance_id.tolist() == [0, 0]
