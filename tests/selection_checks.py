"""Shared brute-force oracles for batch selection tests."""

from __future__ import annotations

import itertools
import math

import numpy as np

from divbatch.boxes import distances
from divbatch.selection import Batch, _batch, _ranked, _sweep
from divbatch.trajectory import fitness_keys
from trajectory_checks import Point, trajectory_of


def feasible(points, subset, d_min):
    return all(
        float(distances(points[a].x, points[b].x)) >= d_min
        for a, b in itertools.combinations(subset, 2)
    )


def compat_masks_reference(xs, d_min):
    """Compatibility bitmasks one row at a time with the distance kernel.

    Bit j of mask i is set iff j != i and ``distances(xs[j], xs[i]) >= d_min``.
    """
    masks = []
    for i, x in enumerate(xs):
        ok = distances(xs, x) >= d_min
        ok[i] = False
        packed = np.packbits(ok.astype(np.uint8), bitorder="little").tobytes()
        masks.append(int.from_bytes(packed, "little"))
    return masks


def sum_order(values):
    """Order of a batch's fitness sum that a NaN (+inf) beside a -inf cannot spoil.

    NaN counts as +inf.  Returns (number of +inf, minus the number of
    -inf, ``sum`` of the finite values); with finite values it orders as
    the plain sum does.
    """
    values = [math.inf if math.isnan(v) else float(v) for v in values]
    finite = sum(v for v in values if math.isfinite(v))
    return values.count(math.inf), -values.count(-math.inf), finite


def plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


def enumerate_best(points, k, d_min):
    """Optimal forced-leader selection by exhaustive enumeration.

    ``points`` must be fitness-sorted with the leader at index 0.  Sizes
    k, k-1, ... are tried in turn and the first size with any feasible
    subset wins, so like the branch-and-bound selector it finds the best
    batch of the largest feasible size, its sum ranked by ``sum_order``.
    Returns (size, fitness_sum).
    """
    n = len(points)
    for size in range(min(k, n), 0, -1):
        best = None
        for rest in itertools.combinations(range(1, n), size - 1):
            subset = (0,) + rest
            if feasible(points, subset, d_min):
                values = [points[i].f for i in subset]
                if best is None or sum_order(values) < sum_order(best):
                    best = values
        if best is not None:
            return size, sum(best)
    return 0, 0.0


def random_instance(seed):
    """A small seeded selection problem: (portfolio, k, d_min)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 31))
    dim = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    d_min = float(rng.uniform(1.0, 6.0))
    points = [
        Point(x=rng.uniform(-5, 5, dim), f=float(rng.normal()), eval_index=i, instance_id=0)
        for i in range(n)
    ]
    return trajectory_of(points), k, d_min


# The branch and bound that restarts once per batch size, from k down to 1,
# and falls back to clearing when its node cap stops it before any size is
# proved.  Uncapped, the one-pass ``exact_select`` must pick what it picks.
# Its masks come from ``compat_masks_reference`` and its sums are ranked by
# ``sum_order``, so it shares no mask or sum code with the selector.
def reference_exact_select(
    portfolio,
    k: int,
    d_min: float,
    node_cap: int = 10_000_000,
) -> Batch:
    """Optimal batch by branch and bound, subject to a node cap.

    Searches fitness-sorted subsets containing the leader, pruning on a
    fitness-sum lower bound and on candidate-count infeasibility, with the
    clearing batch as the starting incumbent.  When no k-subset is
    feasible, smaller sizes are tried in turn, so the result is the best
    feasible batch of maximum size.  A NaN fitness counts as +inf, so a
    batch holding one is kept when no batch of that size has a finite
    sum.  ``proved_optimal`` reports whether the search ran to completion
    within the node cap.
    """
    ranked = _ranked(portfolio)
    xs, fs = ranked[0], fitness_keys(ranked[1]).tolist()
    n = len(fs)
    masks = compat_masks_reference(xs, d_min)
    clearing_members = _sweep(xs, [], k, d_min)

    nodes = 0
    aborted = False

    def cheapest(rem: int, need: int) -> list[float]:
        # bits are in fitness order, so the lowest set bits are the cheapest
        return [fs[b] for b in range(n) if rem >> b & 1][:need]

    def search(size: int) -> list[int] | None:
        nonlocal nodes, aborted
        best_set: list[int] | None = None
        best_sum = None
        if len(clearing_members) == size:
            best_set = clearing_members
            best_sum = sum_order(fs[i] for i in clearing_members)
        chosen = [0]

        def dfs(cand: int, count: int, cur_sum: tuple) -> None:
            nonlocal best_set, best_sum, nodes, aborted
            if aborted:
                return
            nodes += 1
            if nodes > node_cap:
                aborted = True
                return
            if count == size:
                if best_set is None or cur_sum < best_sum:
                    best_sum = cur_sum
                    best_set = chosen.copy()
                return
            need = size - count
            rem = cand
            while rem:
                if rem.bit_count() < need:
                    return
                if best_set is not None and (
                    plus(cur_sum, sum_order(cheapest(rem, need))) >= best_sum
                ):
                    return
                b = (rem & -rem).bit_length() - 1
                rem &= rem - 1
                chosen.append(b)
                dfs(rem & masks[b], count + 1, plus(cur_sum, sum_order([fs[b]])))
                chosen.pop()
                if aborted:
                    return

        if size == 1:
            return [0]
        dfs(masks[0], 1, sum_order([fs[0]]))
        return best_set

    result: list[int] | None = None
    for size in range(min(k, n), 0, -1):
        found = search(size)
        if found is not None:
            result = sorted(found)
            break
        if aborted:
            break

    if result is None:
        # caps hit before any feasible set was proven; fall back to clearing
        result = clearing_members
    return _batch(ranked, result, k, d_min, "exact", proved=not aborted)
