"""Batch-selection tests: worked examples, oracle equivalence, dominance."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from divbatch import (
    DsConfig,
    EmptyPortfolio,
    SELECTORS,
    Trajectory,
    batch_to_dict,
    clearing_select,
    exact_select,
    greedy_select,
    make_function,
    read_trajectory,
    run_cma_single,
    run_ds,
    run_random,
    selection,
    verify_batch,
    write_batch,
)
from divbatch.boxes import distances
from divbatch.cascade import _clear_of
from selection_checks import enumerate_best, random_instance, reference_exact_select
from trajectory_checks import Point, point_key, rows_of, trajectory_of


def line(x1s, fs):
    """A portfolio on the x0 axis of the plane, so distances equal |x1 - x1'|.

    Row i, evaluated i-th, is at (x1s[i], 0) with fitness fs[i].
    """
    x1s = np.asarray(x1s, dtype=float)
    return Trajectory(
        xs=np.column_stack([x1s, np.zeros(len(x1s))]),
        fs=np.asarray(fs, dtype=float),
        instance_id=np.zeros(len(x1s), dtype=np.int64),
    )


# A(0, f=0), B(1, f=1), C(2, f=5), D(1.5, f=0.5): the only feasible
# 3-subset at d_min=1 is {A, B, C}, and a naive best-first sweep dies
# after {A, D}
ABCD = line([0.0, 1.0, 2.0, 1.5], [0.0, 1.0, 5.0, 0.5])


def xs_of(batch):
    return batch.xs[:, 0].tolist()


def test_clearing_keeps_far_points():
    batch = clearing_select(line([0.0, 0.5, 3.0], [1.0, 2.0, 3.0]), 2, 1.0)
    assert batch.complete
    assert xs_of(batch) == [0.0, 3.0]


def test_clearing_runs_out_of_pool():
    batch = clearing_select(line([0.0, 0.5, 3.0], [1.0, 2.0, 3.0]), 3, 1.0)
    assert not batch.complete
    assert len(batch) == 2


def test_clearing_greedy_trap():
    batch = clearing_select(ABCD, 3, 1.0)
    assert sorted(xs_of(batch)) == [0.0, 1.5]
    assert not batch.complete


def test_greedy_escapes_the_trap():
    batch = greedy_select(ABCD, 3, 1.0)
    assert batch.complete
    assert sorted(xs_of(batch)) == [0.0, 1.0, 2.0]
    assert batch.fitness_sum() == pytest.approx(6.0)


def test_exact_escapes_the_trap_and_proves_it():
    batch = exact_select(ABCD, 3, 1.0)
    assert batch.complete
    assert batch.proved_optimal
    assert sorted(xs_of(batch)) == [0.0, 1.0, 2.0]
    assert batch.fitness_sum() == pytest.approx(6.0)


def test_exact_keeps_a_full_batch_that_holds_a_nan():
    # with C's f unknown the only 3-point batch {A, B, C} has no finite
    # sum; it still beats the 2-point {A, D}
    points = line([0.0, 1.0, 2.0, 1.5], [0.0, 1.0, math.nan, 0.5])
    batch = exact_select(points, 3, 1.0)
    assert batch.complete
    assert batch.proved_optimal
    assert sorted(xs_of(batch)) == [0.0, 1.0, 2.0]
    assert batch.eval_index.tolist() == greedy_select(points, 3, 1.0).eval_index.tolist()


# x = 0, 10, 9, 11, 30 with f = -inf, 1, 2, 3, NaN: at d_min=1.5 the
# clearing batch {0, 10, 30} sums -inf + inf, and {0, 9, 11} holds no NaN
BOTH_INFINITIES = line([0, 10, 9, 11, 30], [-math.inf, 1, 2, 3, math.nan])


def test_a_sum_holding_both_infinities_still_compares():
    assert sorted(xs_of(clearing_select(BOTH_INFINITIES, 3, 1.5))) == [0.0, 10.0, 30.0]
    # dropping 30 leaves {0, 10}, which clears 9 and 11, and dropping 10
    # refills with 9 beside 30: no one-member repair reaches {0, 9, 11}
    assert sorted(xs_of(greedy_select(BOTH_INFINITIES, 3, 1.5))) == [0.0, 10.0, 30.0]
    batch = exact_select(BOTH_INFINITIES, 3, 1.5)
    assert sorted(xs_of(batch)) == [0.0, 9.0, 11.0]
    assert batch.complete and batch.proved_optimal
    ordered = sorted(rows_of(BOTH_INFINITIES), key=point_key)
    assert enumerate_best(ordered, 3, 1.5) == (3, -math.inf)
    oracle = reference_exact_select(BOTH_INFINITIES, 3, 1.5)
    assert oracle.eval_index.tolist() == batch.eval_index.tolist()


def test_a_batch_sum_ranks_nan_as_inf():
    clearing = clearing_select(BOTH_INFINITIES, 3, 1.5)
    exact = exact_select(BOTH_INFINITIES, 3, 1.5)
    assert clearing.fitness_sum() == math.inf
    assert exact.fitness_sum() == -math.inf
    assert exact.fitness_sum() < clearing.fitness_sum()
    # without the -inf leader, {10, 30} holds only the NaN
    no_leader = line([10, 9, 11, 30], [1, 2, 3, math.nan])
    assert clearing_select(no_leader, 3, 1.5).fitness_sum() == math.inf
    # a finite batch keeps the plain sum in member order, bit for bit
    batch = clearing_select(line([0, 5, 10], [1.0, 1.0, 1e16]), 3, 1.0)
    assert batch.fitness_sum() == float(sum(batch.fs.tolist())) == 1e16 + 2


def test_greedy_returns_feasible_top_k_unchanged():
    batch = greedy_select(line([0.0, 2.0, 4.0, 0.5], [0.0, 1.0, 2.0, 9.0]), 3, 1.0)
    assert batch.complete
    assert xs_of(batch) == [0.0, 2.0, 4.0]


def test_greedy_with_small_portfolio_reduces_to_feasible_subset():
    points = line([0.0, 0.2], [0.0, 1.0])
    batch = greedy_select(points, 5, 1.0)
    assert not batch.complete
    assert verify_batch(batch, 1.0, points)


def test_leader_is_always_the_portfolio_argmin():
    portfolio, k, d_min = random_instance(4)
    best = min(range(len(portfolio)), key=lambda i: (portfolio.fs[i], i))
    for select in (clearing_select, greedy_select, exact_select):
        batch = select(portfolio, k, d_min)
        assert batch.eval_index[0] == best


def test_leader_ties_break_by_eval_index():
    # rows 1 and 3 tie on f = 1
    points = line([9.0, 5.0, 7.0, 0.0], [2.0, 1.0, 3.0, 1.0])
    for select in (clearing_select, greedy_select, exact_select):
        assert select(points, 2, 1.0).eval_index[0] == 1


def test_nan_fitness_never_leads():
    # (f, eval_index) tuples holding NaN are no total order and would let point 0 lead
    points = line([0.0, 3.0, 6.0, 9.0], [math.nan, 2.0, 1.0, math.nan])
    assert points.best() == 2
    for select in (clearing_select, greedy_select, exact_select):
        batch = select(points, 3, 1.0)
        assert batch.eval_index.tolist()[:2] == [2, 1], select.__name__
        assert verify_batch(batch, 1.0, points)


def clearing_oracle(points, k, d_min):
    pool = sorted(points, key=lambda p: (p.f, p.eval_index))
    picked = []
    while pool and len(picked) < k:
        head = pool[0]
        picked.append(head)
        pool = [p for p in pool[1:] if float(np.linalg.norm(p.x - head.x)) >= d_min]
    return picked


@pytest.mark.parametrize("seed", range(50))
def test_clearing_matches_an_independent_sweep(seed):
    rng = np.random.default_rng(seed)
    points = [
        Point(x=rng.uniform(-5, 5, 3), f=float(rng.normal()), eval_index=i, instance_id=0)
        for i in range(50)
    ]
    batch = clearing_select(trajectory_of(points), 5, 2.0)
    assert batch.eval_index.tolist() == [p.eval_index for p in clearing_oracle(points, 5, 2.0)]


@pytest.mark.parametrize("seed", range(30))
def test_exact_matches_enumeration_and_dominates(seed):
    portfolio, k, d_min = random_instance(seed)
    ordered = sorted(rows_of(portfolio), key=lambda p: (p.f, p.eval_index))
    size, best_sum = enumerate_best(ordered, k, d_min)

    exact = exact_select(portfolio, k, d_min)
    assert exact.proved_optimal
    assert len(exact) == size
    assert exact.fitness_sum() == pytest.approx(best_sum, abs=1e-9)
    assert verify_batch(exact, d_min, portfolio)

    for select in (clearing_select, greedy_select):
        batch = select(portfolio, k, d_min)
        assert verify_batch(batch, d_min, portfolio)
        if batch.complete and exact.complete:
            assert batch.fitness_sum() >= exact.fitness_sum() - 1e-9

    clearing, greedy = clearing_select(portfolio, k, d_min), greedy_select(portfolio, k, d_min)
    assert len(greedy) >= len(clearing)
    if len(greedy) == len(clearing):
        assert greedy.fitness_sum() <= clearing.fitness_sum()


def test_exact_returns_the_largest_feasible_size():
    # five collinear points spaced 1 apart: at d_min=2.5 no triple fits
    batch = exact_select(line(range(5), range(5)), 3, 2.5)
    assert len(batch) == 2
    assert not batch.complete
    assert batch.proved_optimal
    assert batch.eval_index[0] == 0


def sphere_instance(seed, n, k, d_min):
    """Points in the square [-5, 5]^2 with f = |x|^2: the best ones crowd the centre."""
    xs = np.random.default_rng(seed).uniform(-5, 5, (n, 2))
    fs = np.array([x @ x for x in xs])
    return Trajectory(xs=xs, fs=fs, instance_id=np.zeros(n, dtype=np.int64)), k, d_min


# Each instance with the work of its uncapped search: one unit a node, as
# rows of fewer than 256 distances cost nothing.
CAPPED_INSTANCES = [
    (random_instance(12), 3),
    # a complete clearing batch that exact improves on
    (sphere_instance(0, 60, 8, 3.0), 257),
    # clearing stops at 9 of 10 members, exact finds 10
    (sphere_instance(0, 60, 10, 3.0), 1370),
    # clearing stops at 7 of 9 members, and 7 is the most that fit
    (sphere_instance(1, 50, 9, 3.3), 4032),
]


def test_exact_caps_disable_the_optimality_claim(monkeypatch):
    for (points, k, d_min), work in CAPPED_INSTANCES:
        uncapped = exact_select(points, k, d_min)
        clearing = clearing_select(points, k, d_min)
        for cap in (1, 2, 3, 5, 10, 100, 1000, work - 1, work):
            with monkeypatch.context() as patch:
                patch.setattr(selection, "WORK_CAP", cap)
                batch = exact_select(points, k, d_min)
            assert verify_batch(batch, d_min, points)
            assert len(batch) >= len(clearing)
            if len(batch) == len(clearing):
                assert batch.fitness_sum() <= clearing.fitness_sum()
            # the search is deterministic, so a cap is hit exactly when it
            # is below the uncapped work; a weaker prune would change that work
            assert batch.proved_optimal == (cap >= work), (work, cap)
            if batch.proved_optimal:
                assert batch.eval_index.tolist() == uncapped.eval_index.tolist()


def test_exact_reads_no_clock(monkeypatch):
    (points, k, d_min), _ = CAPPED_INSTANCES[2]
    steady = exact_select(points, k, d_min)
    # a clock that jumps an hour on each reading
    clock = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    jumping = exact_select(points, k, d_min)
    assert steady.proved_optimal and jumping.proved_optimal
    assert jumping.eval_index.tolist() == steady.eval_index.tolist()


def test_exact_searches_deeper_than_the_recursion_limit(monkeypatch):
    # 3,001 points half a unit apart: clearing takes every other one, and
    # the search first descends along the clearing batch, 1,501 members deep
    portfolio = line([i / 2 for i in range(3001)], [i / 2 for i in range(3001)])
    built = []

    def counting(xs, i, d_min):
        built.append(i)
        return build(xs, i, d_min)

    build = selection._compat_masks
    monkeypatch.setattr(selection, "_compat_masks", counting)
    # each set on the way down bounds the fitness sum of the members it
    # still needs, up to 1,500 values, which come to about 70,000 units
    monkeypatch.setattr(selection, "WORK_CAP", 100_000)
    batch = exact_select(portfolio, 1501, 1.0)
    assert batch.complete and verify_batch(batch, 1.0, portfolio)
    # one row per depth on the way down
    assert len(built) > sys.getrecursionlimit()


def sphere_portfolio(n):
    """``run_random``'s n uniform points of the 10-D sphere."""
    return run_random(make_function("sphere", 10, 0), n, seed=0)


def test_exact_builds_mask_rows_only_as_its_search_needs_them(monkeypatch):
    portfolio = sphere_portfolio(50_000)
    built = []

    def counting(xs, i, d_min):
        built.append(i)
        return build(xs, i, d_min)

    build = selection._compat_masks
    monkeypatch.setattr(selection, "_compat_masks", counting)
    # the search takes 9,780 units: 58 rows of about 146, and 133 nodes of
    # 10 each over a sub-portfolio of about 37,000 points
    monkeypatch.setattr(selection, "WORK_CAP", 10_000)
    batch = exact_select(portfolio, 5, 10.0)
    assert batch.proved_optimal and batch.complete
    assert verify_batch(batch, 10.0, portfolio)
    # all 50,000 rows at once would hold 50,000**2 / 2 bits
    assert 0 < len(built) < 500
    assert len(set(built)) == len(built)


def test_exact_checks_its_work_cap_before_it_builds_a_mask_row(monkeypatch):
    portfolio = sphere_portfolio(50_000)
    built = []
    monkeypatch.setattr(selection, "_compat_masks", lambda *args: built.append(args))
    # the first row the search needs costs about 146 units
    monkeypatch.setattr(selection, "WORK_CAP", 100)
    batch = exact_select(portfolio, 5, 10.0)
    assert not built and not batch.proved_optimal
    clearing = clearing_select(portfolio, 5, 10.0)
    assert batch.eval_index.tolist() == clearing.eval_index.tolist()


def test_exact_charges_a_node_by_the_width_of_its_masks(monkeypatch):
    # a far leader and 8,191 points within half a unit of each other: every
    # row past the leader's is seeded empty, so the search proves the
    # clearing batch at its first node, which costs 1 + 8,192 // 4,096 units
    portfolio = line([100.0] + [i / 16382 for i in range(8191)], range(8192))
    for cap, proved in ((2, False), (3, True)):
        monkeypatch.setattr(selection, "WORK_CAP", cap)
        batch = exact_select(portfolio, 2, 1.0)
        assert batch.proved_optimal == proved, cap
        assert batch.eval_index.tolist() == [0, 1]


def least_proving_cap(monkeypatch, points, k, d_min):
    """The smallest cap under which the search is proved: the work it charges in all."""
    low, high = 0, 1
    while True:
        monkeypatch.setattr(selection, "WORK_CAP", high)
        if exact_select(points, k, d_min).proved_optimal:
            break
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        monkeypatch.setattr(selection, "WORK_CAP", middle)
        if exact_select(points, k, d_min).proved_optimal:
            high = middle
        else:
            low = middle
    return high


def test_exact_charges_the_fitness_values_its_bounds_sum(monkeypatch):
    # at k=20 a bound sums up to 19 fitness values: left uncharged, they made
    # a unit cost about 20 times as long at k=200 as at k=5
    points, k, d_min = sphere_instance(1, 60, 20, 1.2)
    walked = []
    smallest = selection._smallest_fitness_sum

    def counting(mask, need, fs):
        walked.append(need)
        return smallest(mask, need, fs)

    monkeypatch.setattr(selection, "_smallest_fitness_sum", counting)
    assert exact_select(points, k, d_min).proved_optimal
    needs, default = list(walked), selection._VALUES_PER_UNIT
    assert max(needs) >= default
    # no bound sums and no copy holds more than k values, so this charges
    # the nodes and rows alone
    monkeypatch.setattr(selection, "_VALUES_PER_UNIT", k + 1)
    uncharged = least_proving_cap(monkeypatch, points, k, d_min)
    for per_unit in (1, default):
        monkeypatch.setattr(selection, "_VALUES_PER_UNIT", per_unit)
        charged = least_proving_cap(monkeypatch, points, k, d_min) - uncharged
        assert charged >= sum(need // per_unit for need in needs), per_unit


def test_exact_leaves_no_garbage_cycle():
    # a cycle would keep the call's mask rows, xs and fs alive until the
    # cyclic collector happens to run
    portfolio = run_cma_single(make_function("discus", 10, 0), 3000, 0)
    gc.collect()
    gc.disable()
    try:
        batch = exact_select(portfolio, 5, 10.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert batch.proved_optimal


def test_selectors_reject_empty_portfolios(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("eval_index,instance_id,x0,x1,f\n")
    empty = read_trajectory(path)
    for select in (clearing_select, greedy_select, exact_select):
        with pytest.raises(EmptyPortfolio):
            select(empty, 3, 1.0)


def test_the_leader_of_an_empty_portfolio_raises_the_selectors_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("eval_index,instance_id,x0,x1,f\n")
    empty = read_trajectory(path)
    with pytest.raises(EmptyPortfolio, match="portfolio has no points"):
        empty.best()
    batch = clearing_select(ABCD, 2, 1.0)
    with pytest.raises(EmptyPortfolio, match="portfolio has no points"):
        verify_batch(batch, 1.0, empty)
    # still a ValueError, as ``best()`` raised before
    assert issubclass(EmptyPortfolio, ValueError)


@pytest.mark.parametrize("select", [clearing_select, greedy_select, exact_select])
@pytest.mark.parametrize("k", [0, -1])
def test_selectors_reject_fewer_than_one_member(select, k):
    # an empty batch marked complete would reach the metrics and raise there
    with pytest.raises(ValueError, match="k must be >= 1"):
        select(ABCD, k, 1.0)


@pytest.mark.parametrize("select", [clearing_select, greedy_select, exact_select])
@pytest.mark.parametrize("k, shown", [(2.5, "2.5"), (True, "True"), (np.float64(2.0), "np.float64")])
def test_selectors_reject_a_k_that_is_not_an_int(select, k, shown):
    # 2.5 used to give 3 members with k_requested=2.5, and True acted as 1
    with pytest.raises(ValueError, match=f"k must be an int, got {shown}"):
        select(ABCD, k, 1.0)


@pytest.mark.parametrize("select", [clearing_select, greedy_select, exact_select])
def test_selectors_take_a_numpy_int_k(select):
    assert batch_to_dict(select(ABCD, np.int64(2), 1.0)) == batch_to_dict(select(ABCD, 2, 1.0))


def test_verify_batch_boundary_cases():
    ok = clearing_select(line([0.0, 1.0], [0.0, 1.0]), 2, 1.0)
    assert verify_batch(ok, 1.0)
    dup = replace(ok, xs=np.zeros((2, 2)))
    assert not verify_batch(dup, 1.0)


def test_verify_batch_flags_a_nan_distance_and_a_nan_d_min():
    # the selectors keep a pair only where ``distance >= d_min`` holds
    batch = clearing_select(line([0.0, 5.0], [0.0, 1.0]), 2, 1.0)
    batch.xs = np.array([[np.nan, 0.0], [5.0, 0.0]])
    assert not verify_batch(batch, 1.0)
    batch.xs = np.array([[0.0, 0.0], [0.1, 0.0]])
    assert not verify_batch(batch, np.nan)


def test_verify_batch_checks_the_leader_against_the_portfolio():
    points = line([0.0, 3.0, 6.0], [0.0, 1.0, 2.0])
    batch = clearing_select(points, 2, 1.0)
    assert verify_batch(batch, 1.0, points)
    flipped = replace(
        batch,
        xs=batch.xs[::-1],
        fs=batch.fs[::-1],
        eval_index=batch.eval_index[::-1],
        instance_id=batch.instance_id[::-1],
    )
    assert not verify_batch(flipped, 1.0, points)


def boundary_pairs(case):
    """Pairs (a, b, d_min) whose distance is exactly d_min."""
    if case == "worked":
        # np.linalg.norm puts this pair one ulp below d_min
        a = np.array([-2.013038671810774, 1.7199487795635937])
        b = np.array([-3.004845560317867, 4.421131105064978])
        return [(a, b, 2.877510531638623)]
    rng = np.random.default_rng(case)
    pairs = rng.uniform(-5, 5, size=(40, 2, case))
    return [(a, b, float(distances(a, b))) for a, b in pairs]


@pytest.mark.parametrize("case", ["worked", 2, 10])
def test_selectors_verifier_and_filter_agree_at_exactly_d_min(case):
    for a, b, d_min in boundary_pairs(case):
        points = Trajectory(
            xs=np.array([a, b]), fs=np.array([0.0, 1.0]), instance_id=np.zeros(2, dtype=np.int64)
        )
        for select in (clearing_select, greedy_select, exact_select):
            batch = select(points, 2, d_min)
            assert batch.complete, (select.__name__, a, b)
            assert batch.eval_index.tolist() == [0, 1]
            assert verify_batch(batch, d_min, points), (select.__name__, a, b)
        assert _clear_of(b, a[None], d_min), (a, b)


def test_batch_json_layout(tmp_path):
    batch = exact_select(ABCD, 3, 1.0)
    path = tmp_path / "batch.json"
    write_batch(batch, path)
    data = json.loads(path.read_text())
    assert set(data) == {"method", "k_requested", "d_min", "complete", "proved_optimal", "points"}
    assert data["method"] == "exact"
    assert data["k_requested"] == 3
    assert data["complete"] is True
    assert data["proved_optimal"] is True
    assert [set(p) for p in data["points"]] == [{"eval_index", "x", "f"}] * 3
    assert data["points"][0]["x"] == [0.0, 0.0]
    assert data == batch_to_dict(batch)


def test_a_batch_is_complete_exactly_when_it_holds_k_members():
    batch = exact_select(ABCD, 3, 1.0)
    assert batch.complete
    short = replace(
        batch,
        xs=batch.xs[:2],
        fs=batch.fs[:2],
        eval_index=batch.eval_index[:2],
        instance_id=batch.instance_id[:2],
    )
    assert not short.complete and batch_to_dict(short)["complete"] is False
    # derived from the members, so it cannot be set to disagree with them
    with pytest.raises(AttributeError):
        short.complete = True


# the ``points`` view stays only for perfbench's output checks, which read it
def test_a_batch_holds_columns_and_builds_its_points_on_each_access():
    batch = exact_select(ABCD, 3, 1.0)
    assert batch.xs.shape == (3, 2) and batch.fs.tolist() == [0.0, 1.0, 5.0]
    assert batch.eval_index.tolist() == [0, 1, 2] and batch.instance_id.tolist() == [0, 0, 0]
    first, second = batch.points, batch.points
    assert first is not second and all(a is not b for a, b in zip(first, second))
    for a, b in zip(first, second):
        assert (a.f, a.eval_index, a.instance_id) == (b.f, b.eval_index, b.instance_id)
        assert np.array_equal(a.x, b.x)
    assert all(type(p.f) is float and type(p.eval_index) is int for p in first)
    assert np.shares_memory(first[1].x, batch.xs)
    with pytest.raises(AttributeError):
        batch.points = first
    # columns hold arrays, so batches compare by identity
    assert batch == batch and batch != exact_select(ABCD, 3, 1.0)


# The selection-output gate: fixed portfolios, each with its d_min and the
# SHA-256 of its batch JSONs as written when the distance kernel summed its
# squares with np.add.reduce.  On the D=40 cma portfolio clearing picks
# from as deep as rank 1,520.
SELECTION_GATE = {
    "cma-discus-d10": (
        lambda: run_cma_single(make_function("discus", 10, 0), 3000, 0),
        10.0,
        {
            "clearing": "54e17de81a6b432e0809069d046d00ae599ee8f1069ef20f4f697f03024b5c95",
            "exact": "32cfa3690ae8eea8ef38714df4c42f9b88882c2fe58170611dcec7a5e4126736",
        },
    ),
    "ds-sphere-d10": (
        lambda: run_ds(DsConfig(k=5, d_min=10.0, budget=3000, seed=0), make_function("sphere", 10, 0))[0],
        10.0,
        {
            "clearing": "016b04ad574a936d3ab540df037906b716037f2b88bb1829c673fd49bac51bc1",
            "exact": "4a429f8aba5f50aabe0a4bc560b62dd244d409ec19a60a8d252f7b529beafdd1",
        },
    ),
    "random-rastrigin_sep-d10": (
        lambda: run_random(make_function("rastrigin_sep", 10, 0), 3000, 0),
        10.0,
        {
            "clearing": "e60c0a2f2c932296cdd6f2d9fb8fa8b7e8ee3bf904540c7ae941c212a1dd7d74",
            "exact": "6edc7de0606f1511a337d48865ed8b0a80aa9b695f75e462fb83c7ea7124b8ed",
        },
    ),
    "cma-rastrigin_sep-d40": (
        lambda: run_cma_single(make_function("rastrigin_sep", 40, 0), 3000, 0),
        10.0,
        {"clearing": "e54e498644799db0b2eb000586216219c41fafd8611434aae77dc89b9847f6ef"},
    ),
}


@pytest.mark.parametrize("name", SELECTION_GATE)
def test_selection_outputs_keep_their_digests(tmp_path, name):
    generate, d_min, digests = SELECTION_GATE[name]
    portfolio = generate()
    for method, digest in digests.items():
        path = tmp_path / f"{method}.json"
        write_batch(SELECTORS[method](portfolio, 5, d_min), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (name, method)


def test_exact_builds_only_the_mask_rows_its_bound_leaves(monkeypatch):
    # 1,222 of the cma discus portfolio's points lie at least d_min from the
    # leader and no pair of them does: the search visits 1,222 rows, the
    # leader's is known to hold them all, and the bounding-box bound proves
    # 563 others empty.  Without the bound it builds 1,221.
    generate, d_min, _ = SELECTION_GATE["cma-discus-d10"]
    portfolio = generate()
    built = []

    def counting(xs, i, d_min):
        built.append(i)
        return build(xs, i, d_min)

    build = selection._compat_masks
    monkeypatch.setattr(selection, "_compat_masks", counting)
    batch = exact_select(portfolio, 5, d_min)
    assert batch.proved_optimal and len(batch) == 2
    assert len(built) == 658
