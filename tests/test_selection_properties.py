"""Property tests: selector invariants on small hostile portfolios.

Portfolios mix tied fitness values, duplicate points (coordinates come
from a small integer grid), NaN fitness, batch sizes larger than the
portfolio and distance requirements from 0 upwards.  Uncapped, the exact
selector picks what the per-size search it replaced picks, also where
fitness holds ±inf and k exceeds the most members that fit.  Each mask
row the exact selector builds is checked bit for bit against the
per-row distance kernel on integer grids, duplicates, non-finite and
subnormal coordinates and distance requirements.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from divbatch import DsConfig, EvaluatedPoint, Trajectory, make_function, run_ds, selection
from divbatch import clearing_select, exact_select, greedy_select, verify_batch
from divbatch.boxes import distances
from divbatch.trajectory import fitness_key
from selection_checks import compat_masks_reference, reference_exact_select

SELECTORS = (clearing_select, greedy_select, exact_select)

coordinates = st.integers(-3, 3).map(float)
fitness_values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(-10.0, 10.0),
    st.just(math.nan),
)
distance_requirements = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 6.0))


@st.composite
def selection_problems(draw, fitness=fitness_values):
    """(points, k, d_min) with shuffled eval_index stamps."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    stamps = draw(st.permutations(range(n)))
    points = [
        EvaluatedPoint(
            x=np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim))),
            f=draw(fitness),
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


def batch_bits(batch):
    members = [
        (p.eval_index, p.instance_id, p.x.tobytes(), np.float64(p.f).tobytes()) for p in batch.points
    ]
    return members, batch.complete, batch.proved_optimal


@PROPERTY_SETTINGS
@given(selection_problems())
def test_a_trajectory_and_its_shuffled_points_select_the_same_batch(problem):
    points, k, d_min = problem
    trajectory = Trajectory.from_points(sorted(points, key=lambda p: p.eval_index))
    for select in SELECTORS:
        assert batch_bits(select(trajectory, k, d_min)) == batch_bits(select(points, k, d_min))


# traps whose only full batch holds a NaN point are about 1 in 100
# problems, so this property draws more of them
@settings(max_examples=500, deadline=None, derandomize=True)
@given(selection_problems())
def test_a_proved_optimal_exact_batch_is_never_worse_than_greedy(problem):
    points, k, d_min = problem
    exact = exact_select(points, k, d_min)
    if exact.proved_optimal:
        assert no_worse(exact, greedy_select(points, k, d_min))


@st.composite
def oracle_problems(draw):
    """Selection problems with ±inf fitness too, and with k often set to the
    most members that fit, or one more, so the search must settle for less."""
    fitness = st.one_of(fitness_values, st.sampled_from([math.inf, -math.inf]))
    points, k, d_min = draw(selection_problems(fitness=fitness))
    most = len(reference_exact_select(points, len(points), d_min))
    return points, draw(st.sampled_from([k, most, most + 1])), d_min


@PROPERTY_SETTINGS
@given(oracle_problems())
def test_exact_picks_what_the_per_size_search_picks(problem):
    points, k, d_min = problem
    batch = exact_select(points, k, d_min)
    oracle = reference_exact_select(points, k, d_min)
    assert [p.eval_index for p in batch.points] == [p.eval_index for p in oracle.points]
    assert (batch.complete, batch.proved_optimal) == (oracle.complete, oracle.proved_optimal)


def assert_rows_equal_the_reference(xs, d_min):
    """Every row ``_compat_masks`` builds holds the reference mask's bits above the diagonal."""
    reference = compat_masks_reference(xs, d_min)
    for i, mask in enumerate(reference):
        assert selection._compat_masks(xs, i, d_min) == mask >> (i + 1) << (i + 1), (i, d_min)


@st.composite
def mask_problems(draw):
    """(xs, d_min): an integer grid, scaled, with duplicate rows and non-finite entries."""
    dim = draw(st.integers(1, 40))
    # rows of one bit, of a byte or so, and of many bytes
    n = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(190, 250)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # tiny scales make the squares subnormal, huge ones overflow them
    scale = draw(st.sampled_from([1.0, 0.1, 3.7, 1.1e-161, 6.2e-161, 1e155]))
    xs = rng.integers(-3, 4, size=(n, dim)) * scale
    for _ in range(draw(st.integers(0, 3))):
        xs[rng.integers(n)] = xs[rng.integers(n)]
    for value in draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3)):
        xs[rng.integers(n), rng.integers(dim)] = value
    kind = draw(st.sampled_from(["pair", "special", "scaled"]))
    if kind == "pair":
        # grid pairs share squared distances, so many sit at exactly d_min
        d_min = float(distances(xs[rng.integers(n)], xs[rng.integers(n)]))
    elif kind == "special":
        d_min = draw(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]))
    else:
        d_min = draw(st.floats(0.0, 12.0)) * scale
    return xs, d_min


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mask_problems())
def test_compat_masks_equal_the_per_row_kernel(problem):
    assert_rows_equal_the_reference(*problem)


def test_compat_masks_of_integer_coordinates_equal_the_per_row_kernel():
    xs = np.random.default_rng(0).integers(-3, 4, size=(300, 4))
    for d_min in (0.0, 2.0, math.sqrt(5.0)):
        assert_rows_equal_the_reference(xs, d_min)


def test_compat_masks_of_a_3000_point_ds_portfolio_equal_the_per_row_kernel():
    trajectory = run_ds(DsConfig(k=5, d_min=10.0, budget=3000), make_function("ellipsoid", 10, 0))
    xs = np.asarray([p.x for p in sorted(trajectory.points, key=fitness_key)])
    for d_min in (10.0, 2.0, float(distances(xs[0], xs[1]))):
        assert_rows_equal_the_reference(xs, d_min)
