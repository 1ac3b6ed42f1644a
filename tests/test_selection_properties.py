"""Property tests: selector invariants on small hostile portfolios.

Portfolios mix tied fitness values, duplicate points (coordinates come
from a small integer grid), NaN fitness, batch sizes larger than the
portfolio and distance requirements from 0 upwards.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from divbatch import EvaluatedPoint, clearing_select, exact_select, greedy_select, verify_batch

SELECTORS = (clearing_select, greedy_select, exact_select)

coordinates = st.integers(-3, 3).map(float)
fitness_values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(-10.0, 10.0),
    st.just(math.nan),
)
distance_requirements = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 6.0))


@st.composite
def selection_problems(draw):
    """(points, k, d_min) with shuffled eval_index stamps."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    stamps = draw(st.permutations(range(n)))
    points = [
        EvaluatedPoint(
            x=np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim))),
            f=draw(fitness_values),
            eval_index=stamp,
            instance_id=0,
        )
        for stamp in stamps
    ]
    k = draw(st.integers(1, n + 2))
    return points, k, draw(distance_requirements)


def best_finite_point(points):
    """The expected leader: lowest finite f, earliest eval_index; NaN only if nothing else."""
    finite = [p for p in points if not math.isnan(p.f)]
    if finite:
        return min(finite, key=lambda p: (p.f, p.eval_index))
    return min(points, key=lambda p: p.eval_index)


def ranked_sum(batch):
    """Fitness sum with NaN counted as +inf, so NaN sums still compare."""
    return sum(math.inf if math.isnan(p.f) else p.f for p in batch.points)


def no_worse(batch, reference):
    if len(batch) != len(reference):
        return len(batch) > len(reference)
    return ranked_sum(batch) <= ranked_sum(reference)


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(selection_problems())
def test_every_batch_is_feasible_and_led_by_the_best_finite_point(problem):
    points, k, d_min = problem
    leader = best_finite_point(points)
    for select in SELECTORS:
        batch = select(points, k, d_min)
        assert 1 <= len(batch) <= min(k, len(points))
        assert batch.complete == (len(batch) == k)
        assert verify_batch(batch, d_min, points), select.__name__
        assert batch.points[0].eval_index == leader.eval_index, select.__name__


@PROPERTY_SETTINGS
@given(selection_problems())
def test_greedy_and_exact_are_never_worse_than_clearing(problem):
    points, k, d_min = problem
    clearing = clearing_select(points, k, d_min)
    assert no_worse(greedy_select(points, k, d_min), clearing)
    assert no_worse(exact_select(points, k, d_min), clearing)


# traps whose only full batch holds a NaN point are about 1 in 100
# problems, so this property draws more of them
@settings(max_examples=500, deadline=None, derandomize=True)
@given(selection_problems())
def test_a_proved_optimal_exact_batch_is_never_worse_than_greedy(problem):
    points, k, d_min = problem
    exact = exact_select(points, k, d_min)
    if exact.proved_optimal:
        assert no_worse(exact, greedy_select(points, k, d_min))
