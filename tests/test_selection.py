"""Batch-selection tests: worked examples, oracle equivalence, dominance."""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
import pytest

from divbatch import (
    EmptyPortfolio,
    EvaluatedPoint,
    Trajectory,
    batch_to_dict,
    clearing_select,
    exact_select,
    greedy_select,
    make_function,
    run_random,
    selection,
    verify_batch,
    write_batch,
)
from divbatch.boxes import distances
from divbatch.cascade import _clear_of
from divbatch.trajectory import fitness_key
from selection_checks import enumerate_best, random_instance, reference_exact_select


def pt(x1, f, idx):
    """1-D style point embedded in the plane so distances equal |x1 - x1'|."""
    return EvaluatedPoint(x=np.array([x1, 0.0]), f=float(f), eval_index=idx, instance_id=0)


# A(0, f=0), B(1, f=1), C(2, f=5), D(1.5, f=0.5): the only feasible
# 3-subset at d_min=1 is {A, B, C}, and a naive best-first sweep dies
# after {A, D}
ABCD = [pt(0.0, 0.0, 0), pt(1.0, 1.0, 1), pt(2.0, 5.0, 2), pt(1.5, 0.5, 3)]


def xs_of(batch):
    return [p.x[0] for p in batch.points]


def test_clearing_keeps_far_points():
    points = [pt(0.0, 1.0, 0), pt(0.5, 2.0, 1), pt(3.0, 3.0, 2)]
    batch = clearing_select(points, 2, 1.0)
    assert batch.complete
    assert xs_of(batch) == [0.0, 3.0]


def test_clearing_runs_out_of_pool():
    points = [pt(0.0, 1.0, 0), pt(0.5, 2.0, 1), pt(3.0, 3.0, 2)]
    batch = clearing_select(points, 3, 1.0)
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
    points = ABCD[:2] + [pt(2.0, float("nan"), 2)] + ABCD[3:]
    batch = exact_select(points, 3, 1.0)
    assert batch.complete
    assert batch.proved_optimal
    assert sorted(xs_of(batch)) == [0.0, 1.0, 2.0]
    assert [p.eval_index for p in batch.points] == [
        p.eval_index for p in greedy_select(points, 3, 1.0).points
    ]


# x = 0, 10, 9, 11, 30 with f = -inf, 1, 2, 3, NaN: at d_min=1.5 the
# clearing batch {0, 10, 30} sums -inf + inf, and {0, 9, 11} holds no NaN
BOTH_INFINITIES = [
    pt(x, f, i) for i, (x, f) in enumerate(zip([0, 10, 9, 11, 30], [-math.inf, 1, 2, 3, math.nan]))
]


def test_a_sum_holding_both_infinities_still_compares():
    assert sorted(xs_of(clearing_select(BOTH_INFINITIES, 3, 1.5))) == [0.0, 10.0, 30.0]
    # dropping 30 leaves {0, 10}, which clears 9 and 11, and dropping 10
    # refills with 9 beside 30: no one-member repair reaches {0, 9, 11}
    assert sorted(xs_of(greedy_select(BOTH_INFINITIES, 3, 1.5))) == [0.0, 10.0, 30.0]
    batch = exact_select(BOTH_INFINITIES, 3, 1.5)
    assert sorted(xs_of(batch)) == [0.0, 9.0, 11.0]
    assert batch.complete and batch.proved_optimal
    assert enumerate_best(sorted(BOTH_INFINITIES, key=fitness_key), 3, 1.5) == (3, -math.inf)
    oracle = reference_exact_select(BOTH_INFINITIES, 3, 1.5)
    assert [p.eval_index for p in oracle.points] == [p.eval_index for p in batch.points]


def test_greedy_returns_feasible_top_k_unchanged():
    points = [pt(0.0, 0.0, 0), pt(2.0, 1.0, 1), pt(4.0, 2.0, 2), pt(0.5, 9.0, 3)]
    batch = greedy_select(points, 3, 1.0)
    assert batch.complete
    assert xs_of(batch) == [0.0, 2.0, 4.0]


def test_greedy_with_small_portfolio_reduces_to_feasible_subset():
    points = [pt(0.0, 0.0, 0), pt(0.2, 1.0, 1)]
    batch = greedy_select(points, 5, 1.0)
    assert not batch.complete
    assert verify_batch(batch, 1.0, points)


def test_leader_is_always_the_portfolio_argmin():
    points, k, d_min = random_instance(4)
    best = min(points, key=lambda p: (p.f, p.eval_index))
    for select in (clearing_select, greedy_select, exact_select):
        batch = select(points, k, d_min)
        assert batch.points[0].eval_index == best.eval_index


def test_leader_ties_break_by_eval_index():
    points = [pt(0.0, 1.0, 3), pt(5.0, 1.0, 1), pt(9.0, 2.0, 0)]
    for select in (clearing_select, greedy_select, exact_select):
        assert select(points, 2, 1.0).points[0].eval_index == 1


def test_nan_fitness_never_leads():
    # (f, eval_index) tuples holding NaN are no total order and would let point 0 lead
    points = [pt(0.0, float("nan"), 0), pt(3.0, 2.0, 1), pt(6.0, 1.0, 2), pt(9.0, float("nan"), 3)]
    assert Trajectory.from_points(points).best().eval_index == 2
    for select in (clearing_select, greedy_select, exact_select):
        batch = select(points, 3, 1.0)
        assert [p.eval_index for p in batch.points][:2] == [2, 1], select.__name__
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
        EvaluatedPoint(x=rng.uniform(-5, 5, 3), f=float(rng.normal()), eval_index=i, instance_id=0)
        for i in range(50)
    ]
    batch = clearing_select(points, 5, 2.0)
    assert [p.eval_index for p in batch.points] == [
        p.eval_index for p in clearing_oracle(points, 5, 2.0)
    ]


@pytest.mark.parametrize("seed", range(30))
def test_exact_matches_enumeration_and_dominates(seed):
    points, k, d_min = random_instance(seed)
    ordered = sorted(points, key=lambda p: (p.f, p.eval_index))
    size, best_sum = enumerate_best(ordered, k, d_min)

    exact = exact_select(points, k, d_min)
    assert exact.proved_optimal
    assert len(exact) == size
    assert exact.fitness_sum() == pytest.approx(best_sum, abs=1e-9)
    assert verify_batch(exact, d_min, points)

    for select in (clearing_select, greedy_select):
        batch = select(points, k, d_min)
        assert verify_batch(batch, d_min, points)
        if batch.complete and exact.complete:
            assert batch.fitness_sum() >= exact.fitness_sum() - 1e-9

    clearing, greedy = clearing_select(points, k, d_min), greedy_select(points, k, d_min)
    assert len(greedy) >= len(clearing)
    if len(greedy) == len(clearing):
        assert greedy.fitness_sum() <= clearing.fitness_sum()


def test_exact_returns_the_largest_feasible_size():
    # five collinear points spaced 1 apart: at d_min=2.5 no triple fits
    points = [pt(float(i), float(i), i) for i in range(5)]
    batch = exact_select(points, 3, 2.5)
    assert len(batch) == 2
    assert not batch.complete
    assert batch.proved_optimal
    assert batch.points[0].eval_index == 0


def sphere_instance(seed, n, k, d_min):
    """Points in the square [-5, 5]^2 with f = |x|^2: the best ones crowd the centre."""
    xs = np.random.default_rng(seed).uniform(-5, 5, (n, 2))
    points = [
        EvaluatedPoint(x=x, f=float(x @ x), eval_index=i, instance_id=0) for i, x in enumerate(xs)
    ]
    return points, k, d_min


def uncapped_search(points, k, d_min):
    """An uncapped ``exact_select`` batch and its node count, the calls of its inner ``search``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "search" and frame.f_globals is vars(selection):
            calls += 1

    sys.setprofile(count)
    try:
        batch = exact_select(points, k, d_min)
    finally:
        sys.setprofile(None)
    return batch, calls


CAPPED_INSTANCES = [
    random_instance(12),
    # a complete clearing batch that exact improves on
    sphere_instance(0, 60, 8, 3.0),
    # clearing stops at 9 of 10 members, exact finds 10
    sphere_instance(0, 60, 10, 3.0),
    # clearing stops at 7 of 9 members, and 7 is the most that fit
    sphere_instance(1, 50, 9, 3.3),
]


def test_exact_caps_disable_the_optimality_claim():
    for points, k, d_min in CAPPED_INSTANCES:
        uncapped, nodes = uncapped_search(points, k, d_min)
        clearing = clearing_select(points, k, d_min)
        for cap in (1, 2, 3, 5, 10, 100, 1000):
            batch = exact_select(points, k, d_min, node_cap=cap)
            assert verify_batch(batch, d_min, points)
            assert len(batch) >= len(clearing)
            if len(batch) == len(clearing):
                assert batch.fitness_sum() <= clearing.fitness_sum()
            # the search is deterministic, so a cap is hit exactly when it
            # is below the uncapped node count
            assert batch.proved_optimal == (cap >= nodes), (nodes, cap)
            if batch.proved_optimal:
                assert [p.eval_index for p in batch.points] == [
                    p.eval_index for p in uncapped.points
                ]


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
    start = time.perf_counter()
    batch = exact_select(portfolio, 5, 10.0, time_cap=5.0)
    assert time.perf_counter() - start < 5.0 + 3.0
    assert batch.proved_optimal and batch.complete
    assert verify_batch(batch, 10.0, portfolio)
    # all 50,000 rows at once would hold 50,000**2 / 2 bits
    assert 0 < len(built) < 500
    assert len(set(built)) == len(built)


def test_exact_checks_its_deadline_before_it_builds_a_mask_row():
    portfolio = sphere_portfolio(50_000)
    batch = exact_select(portfolio, 5, 10.0, time_cap=0.0)
    assert not batch.proved_optimal
    clearing = clearing_select(portfolio, 5, 10.0)
    assert [p.eval_index for p in batch.points] == [p.eval_index for p in clearing.points]


def test_selectors_reject_empty_portfolios():
    for select in (clearing_select, greedy_select, exact_select):
        with pytest.raises(EmptyPortfolio):
            select([], 3, 1.0)


@pytest.mark.parametrize("select", [clearing_select, greedy_select, exact_select])
@pytest.mark.parametrize("k", [0, -1])
def test_selectors_reject_fewer_than_one_member(select, k):
    # an empty batch marked complete would reach the metrics and raise there
    with pytest.raises(ValueError, match="k must be >= 1"):
        select(ABCD, k, 1.0)


def test_verify_batch_boundary_cases():
    ok = clearing_select([pt(0.0, 0.0, 0), pt(1.0, 1.0, 1)], 2, 1.0)
    assert verify_batch(ok, 1.0)
    dup = ok
    dup.points = [pt(0.0, 0.0, 0), pt(0.0, 1.0, 1)]
    assert not verify_batch(dup, 1.0)


def test_verify_batch_flags_a_nan_distance_and_a_nan_d_min():
    # the selectors keep a pair only where ``distance >= d_min`` holds
    batch = clearing_select([pt(0.0, 0.0, 0), pt(5.0, 1.0, 1)], 2, 1.0)
    batch.points = [pt(np.nan, 0.0, 0), pt(5.0, 1.0, 1)]
    assert not verify_batch(batch, 1.0)
    batch.points = [pt(0.0, 0.0, 0), pt(0.1, 1.0, 1)]
    assert not verify_batch(batch, np.nan)


def test_verify_batch_checks_the_leader_against_the_portfolio():
    points = [pt(0.0, 0.0, 0), pt(3.0, 1.0, 1), pt(6.0, 2.0, 2)]
    batch = clearing_select(points, 2, 1.0)
    assert verify_batch(batch, 1.0, points)
    batch.points = batch.points[::-1]
    assert not verify_batch(batch, 1.0, points)


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
        points = [
            EvaluatedPoint(x=a, f=0.0, eval_index=0, instance_id=0),
            EvaluatedPoint(x=b, f=1.0, eval_index=1, instance_id=0),
        ]
        for select in (clearing_select, greedy_select, exact_select):
            batch = select(points, 2, d_min)
            assert batch.complete, (select.__name__, a, b)
            assert [p.eval_index for p in batch.points] == [0, 1]
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
