"""Property tests: selector invariants on small hostile portfolios.

Portfolios mix tied fitness values, duplicate points (coordinates come
from a small integer grid), NaN fitness, batch sizes larger than the
portfolio and distance requirements from 0 upwards.  Uncapped, the exact
selector picks what the per-size search it replaced picks, also where
fitness holds ±inf and k exceeds the most members that fit.  Each mask
row the exact selector builds is checked bit for bit against the
per-row distance kernel on integer grids, duplicates, non-finite and
subnormal coordinates and distance requirements, and so is every row
the exact selector's bounding-box bound leaves unbuilt as empty.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from divbatch import DsConfig, make_function, run_ds, selection
from divbatch import clearing_select, exact_select, greedy_select, verify_batch
from divbatch.boxes import distances
from selection_checks import compat_masks_reference, reference_exact_select
from trajectory_checks import Point, point_key, rows_of, trajectory_of

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
    """(portfolio, k, d_min): a trajectory of up to 10 points."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    points = [
        Point(
            x=np.array(draw(st.lists(coordinates, min_size=dim, max_size=dim))),
            f=draw(fitness),
            eval_index=i,
            instance_id=0,
        )
        for i in range(n)
    ]
    k = draw(st.integers(1, n + 2))
    return trajectory_of(points), k, draw(distance_requirements)


def best_finite_row(portfolio):
    """The expected leader's row: lowest finite f, earliest row; NaN only if nothing else."""
    finite = [p for p in rows_of(portfolio) if not math.isnan(p.f)]
    if finite:
        return min(finite, key=lambda p: (p.f, p.eval_index)).eval_index
    return 0


def ranked_sum(batch):
    """Fitness sum with NaN counted as +inf, so NaN sums still compare."""
    return sum(math.inf if math.isnan(f) else f for f in batch.fs.tolist())


def no_worse(batch, reference):
    if len(batch) != len(reference):
        return len(batch) > len(reference)
    return ranked_sum(batch) <= ranked_sum(reference)


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None)


@seed(0)
@PROPERTY_SETTINGS
@given(selection_problems())
def test_every_batch_is_feasible_and_led_by_the_best_finite_point(problem):
    portfolio, k, d_min = problem
    leader = best_finite_row(portfolio)
    for select in SELECTORS:
        batch = select(portfolio, k, d_min)
        assert 1 <= len(batch) <= min(k, len(portfolio))
        assert batch.complete == (len(batch) == k)
        assert verify_batch(batch, d_min, portfolio), select.__name__
        assert batch.eval_index[0] == leader, select.__name__


@seed(0)
@PROPERTY_SETTINGS
@given(selection_problems())
def test_greedy_and_exact_are_never_worse_than_clearing(problem):
    portfolio, k, d_min = problem
    clearing = clearing_select(portfolio, k, d_min)
    assert no_worse(greedy_select(portfolio, k, d_min), clearing)
    assert no_worse(exact_select(portfolio, k, d_min), clearing)


# traps whose only full batch holds a NaN point are about 1 in 100
# problems, so this property draws more of them
@seed(0)
@settings(max_examples=500, deadline=None, database=None)
@given(selection_problems())
def test_a_proved_optimal_exact_batch_is_never_worse_than_greedy(problem):
    portfolio, k, d_min = problem
    exact = exact_select(portfolio, k, d_min)
    if exact.proved_optimal:
        assert no_worse(exact, greedy_select(portfolio, k, d_min))


@st.composite
def clustered_problems(draw, fitness=fitness_values, far_from=2.0):
    """(portfolio, k, d_min): one to three far points, then a cluster of
    points in a ball of radius below d_min / 2, so pairwise too close.

    The far points lie ``far_from`` to 4 d_min from the cluster's centre;
    from 1.5 d_min on, each is compatible with every cluster point.
    Evaluated first, they win fitness ties, and a far leader leaves the
    cluster in the exact search.
    """
    dim = draw(st.integers(1, 3))
    d_min = draw(st.sampled_from([1.0, 2.0, 3.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = rng.normal(size=(draw(st.integers(1, 3)), dim))
    radii = rng.uniform(far_from * d_min, 4 * d_min, len(directions))
    far = directions / np.linalg.norm(directions, axis=1, keepdims=True) * radii[:, None]
    # a cube of half-side r / sqrt(dim) lies inside the ball of radius r
    half = 0.49 * d_min / math.sqrt(dim)
    near = rng.uniform(-half, half, (draw(st.integers(2, 9)), dim))
    points = [
        Point(x=x, f=draw(fitness), eval_index=i, instance_id=0)
        for i, x in enumerate(np.concatenate([far, near]))
    ]
    # below 3 members no search needs a cluster point's row
    return trajectory_of(points), draw(st.integers(3, len(points) + 2)), d_min


@st.composite
def oracle_problems(draw):
    """Selection problems with ±inf fitness too, and with k often set to the
    most members that fit, or one more, so the search must settle for less.
    Clustered problems make the exact search meet rows its bound seeds."""
    fitness = st.one_of(fitness_values, st.sampled_from([math.inf, -math.inf]))
    problems = st.one_of(selection_problems(fitness=fitness), clustered_problems(fitness=fitness))
    portfolio, k, d_min = draw(problems)
    most = len(reference_exact_select(portfolio, len(portfolio), d_min))
    return portfolio, draw(st.sampled_from([k, most, most + 1])), d_min


@seed(0)
@PROPERTY_SETTINGS
@given(oracle_problems())
def test_exact_picks_what_the_per_size_search_picks(problem):
    portfolio, k, d_min = problem
    batch = exact_select(portfolio, k, d_min)
    oracle = reference_exact_select(portfolio, k, d_min)
    assert batch.eval_index.tolist() == oracle.eval_index.tolist()
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
        # grid pairs share squared distances, so many sit at exactly d_min;
        # the kernel's subtraction warns on inf - inf or an overflowing
        # difference, which are meant (its overflowing squares stay silent)
        with np.errstate(invalid="ignore", over="ignore"):
            d_min = float(distances(xs[rng.integers(n)], xs[rng.integers(n)]))
    elif kind == "special":
        d_min = draw(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]))
    else:
        d_min = draw(st.floats(0.0, 12.0)) * scale
    return xs, d_min


@seed(0)
@settings(max_examples=300, deadline=None, database=None)
@given(mask_problems())
def test_compat_masks_equal_the_per_row_kernel(problem):
    # the non-finite coordinates make inf - inf on purpose, which warns in
    # the kernel's subtraction, as a difference that overflows would
    with np.errstate(invalid="ignore", over="ignore"):
        assert_rows_equal_the_reference(*problem)


@seed(0)
@settings(max_examples=300, deadline=None, database=None)
@given(mask_problems())
def test_every_row_the_bound_seeds_is_empty(problem):
    xs, d_min = problem
    with np.errstate(invalid="ignore", over="ignore"):
        for i in selection._empty_rows(xs, d_min).tolist():
            assert selection._compat_masks(xs, i, d_min) == 0, (i, d_min)


@seed(0)
@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(clustered_problems(), clustered_problems(far_from=1.5)))
def test_every_row_the_bound_seeds_in_a_clustered_portfolio_is_empty(problem):
    # with the far points last, a cluster point's later points include
    # points at d_min or more, whose bounding box the bound must not miss
    portfolio, _, d_min = problem
    for xs in (portfolio.xs, portfolio.xs[::-1]):
        for i in selection._empty_rows(xs, d_min).tolist():
            assert selection._compat_masks(xs, i, d_min) == 0, (i, d_min)


def test_compat_masks_of_integer_coordinates_equal_the_per_row_kernel():
    xs = np.random.default_rng(0).integers(-3, 4, size=(300, 4))
    for d_min in (0.0, 2.0, math.sqrt(5.0)):
        assert_rows_equal_the_reference(xs, d_min)


def test_compat_masks_of_a_3000_point_ds_portfolio_equal_the_per_row_kernel():
    trajectory, _ = run_ds(DsConfig(k=5, d_min=10.0, budget=3000), make_function("ellipsoid", 10, 0))
    xs = np.asarray([p.x for p in sorted(rows_of(trajectory), key=point_key)])
    for d_min in (10.0, 2.0, float(distances(xs[0], xs[1]))):
        assert_rows_equal_the_reference(xs, d_min)
