"""Batch subset selection from evaluation portfolios.

Given every point an optimizer evaluated, pick k of them that are pairwise
at least ``d_min`` apart with fitness values as low as possible.  The
batch leader is always the portfolio's best point; points are ranked by
``trajectory.fitness_key``, so a NaN fitness ranks last and never leads.
Feasibility uses the closed inequality, so a pair at exactly ``d_min`` is
valid.

Three selectors with increasing cost: ``clearing_select`` (one
best-first sweep), ``greedy_select`` (repairs the clearing batch by
dropping one member and re-sweeping; it is never smaller than the
clearing batch and, at equal size, never has a higher fitness sum), and
``exact_select`` (branch and bound over fitness-sorted subsets from the
clearing incumbent, provably optimal within its caps).

All distances are Euclidean, computed by ``boxes.distances``, so every
selector and ``verify_batch`` agree on which pairs are feasible, down to
the last bit at exactly ``d_min``.  Custom metrics are not supported.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .boxes import distances
from .trajectory import EvaluatedPoint, Trajectory, fitness_key

__all__ = [
    "Batch",
    "EmptyPortfolio",
    "batch_to_dict",
    "clearing_select",
    "exact_select",
    "greedy_select",
    "verify_batch",
    "write_batch",
]


class EmptyPortfolio(ValueError):
    """Selection requested from a portfolio with no points."""


@dataclass
class Batch:
    """A diverse solution batch; ``points[0]`` is the leader."""

    points: list[EvaluatedPoint]
    k_requested: int
    d_min: float
    method: str
    complete: bool
    proved_optimal: bool = False

    def fitness_sum(self) -> float:
        return float(sum(p.f for p in self.points))

    def __len__(self) -> int:
        return len(self.points)


def _portfolio_points(portfolio) -> list[EvaluatedPoint]:
    points = portfolio.points if isinstance(portfolio, Trajectory) else list(portfolio)
    if not points:
        raise EmptyPortfolio("portfolio has no points")
    return points


def _sorted_by_fitness(points: Sequence[EvaluatedPoint]) -> list[EvaluatedPoint]:
    return sorted(points, key=fitness_key)


def _sweep(
    xs: np.ndarray, picked: list[int], k: int, d_min: float, banned: int | None = None
) -> list[int]:
    """Extend ``picked`` best-first to at most k feasible members.

    ``xs`` holds the fitness-sorted points.  Everything strictly closer
    than ``d_min`` to a picked point is cleared, as is ``banned``; the best
    remaining point is picked next, until k are picked or none is left.
    """
    alive = np.ones(len(xs), dtype=bool)
    for i in picked:
        alive &= distances(xs, xs[i]) >= d_min
    alive[picked] = False
    if banned is not None:
        alive[banned] = False
    picked = list(picked)
    while len(picked) < k and alive.any():
        i = int(np.argmax(alive))
        picked.append(i)
        keep = distances(xs[alive], xs[i]) >= d_min
        alive[np.flatnonzero(alive)] = keep
        alive[i] = False
    return picked


def _batch(
    pts: list[EvaluatedPoint], members: list[int], k: int, d_min: float, method: str
) -> Batch:
    return Batch(
        points=[pts[i] for i in members],
        k_requested=k,
        d_min=d_min,
        method=method,
        complete=len(members) == k,
    )


def clearing_select(portfolio, k: int, d_min: float) -> Batch:
    """Pick the best point, clear everything strictly closer than d_min, repeat.

    Runs until k points are picked or the portfolio is exhausted; in the
    latter case the batch is returned incomplete.
    """
    pts = _sorted_by_fitness(_portfolio_points(portfolio))
    xs = np.asarray([p.x for p in pts])
    return _batch(pts, _sweep(xs, [], k, d_min), k, d_min, "clearing")


def greedy_select(portfolio, k: int, d_min: float) -> Batch:
    """Repair the clearing batch by dropping one member and refilling.

    Starting from the clearing picks, each non-leader member is dropped in
    turn, worst first, and the gap is refilled by a clearing sweep that
    skips the dropped point.  The first refill that is larger, or as large
    with a lower fitness sum, replaces the batch and the loop starts over.
    The result is never smaller than the clearing batch and, at equal
    size, never has a higher fitness sum.
    """
    pts = _sorted_by_fitness(_portfolio_points(portfolio))
    xs = np.asarray([p.x for p in pts])
    # NaN counts as +inf, so a batch with a NaN member still compares
    fs = [fitness_key(p)[0] for p in pts]

    def rank(members: list[int]) -> tuple[int, float]:
        return -len(members), sum(fs[i] for i in members)

    members = _sweep(xs, [], k, d_min)
    improved = True
    while improved:
        improved = False
        for drop in reversed(members[1:]):
            kept = [i for i in members if i != drop]
            refill = sorted(_sweep(xs, kept, k, d_min, banned=drop))
            if rank(refill) < rank(members):
                members, improved = refill, True
                break
    return _batch(pts, members, k, d_min, "greedy")


def _compat_masks(xs: np.ndarray, d_min: float) -> list[int]:
    masks = []
    for i, x in enumerate(xs):
        ok = distances(xs, x) >= d_min
        ok[i] = False
        packed = np.packbits(ok.astype(np.uint8), bitorder="little").tobytes()
        masks.append(int.from_bytes(packed, "little"))
    return masks


def _smallest_fitness_sum(mask: int, need: int, fs: np.ndarray) -> float:
    # bits are in fitness order, so the lowest set bits are the cheapest
    total = 0.0
    while need > 0 and mask:
        b = (mask & -mask).bit_length() - 1
        total += fs[b]
        mask &= mask - 1
        need -= 1
    return total if need == 0 else float("inf")


def exact_select(
    portfolio,
    k: int,
    d_min: float,
    node_cap: int = 10_000_000,
    time_cap: float = 60.0,
) -> Batch:
    """Optimal batch by branch and bound, subject to node and time caps.

    Searches fitness-sorted subsets containing the leader, pruning on a
    fitness-sum lower bound and on candidate-count infeasibility, with the
    clearing batch as the starting incumbent.  When no k-subset is
    feasible, smaller sizes are tried in turn, so the result is the best
    feasible batch of maximum size.  A NaN fitness counts as +inf, so a
    batch holding one is kept when no batch of that size has a finite
    sum.  ``proved_optimal`` reports whether the search ran to completion
    within the caps.
    """
    pts = _sorted_by_fitness(_portfolio_points(portfolio))
    n = len(pts)
    fs = np.asarray([fitness_key(p)[0] for p in pts])
    xs = np.asarray([p.x for p in pts])
    masks = _compat_masks(xs, d_min)
    clearing_members = _sweep(xs, [], k, d_min)

    deadline = time.perf_counter() + time_cap
    nodes = 0
    aborted = False

    def search(size: int) -> tuple[list[int] | None, float]:
        nonlocal nodes, aborted
        best_set: list[int] | None = None
        best_sum = float("inf")
        if len(clearing_members) == size:
            best_set = clearing_members
            best_sum = float(fs[clearing_members].sum())
        chosen = [0]

        def dfs(cand: int, count: int, cur_sum: float) -> None:
            nonlocal best_set, best_sum, nodes, aborted
            if aborted:
                return
            nodes += 1
            if nodes > node_cap or (nodes % 1024 == 0 and time.perf_counter() > deadline):
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
                    cur_sum + _smallest_fitness_sum(rem, need, fs) >= best_sum
                ):
                    return
                b = (rem & -rem).bit_length() - 1
                rem &= rem - 1
                chosen.append(b)
                dfs(rem & masks[b], count + 1, cur_sum + float(fs[b]))
                chosen.pop()
                if aborted:
                    return

        if size == 1:
            return [0], float(fs[0])
        dfs(masks[0], 1, float(fs[0]))
        return best_set, best_sum

    result: list[int] | None = None
    for size in range(min(k, n), 0, -1):
        found, _ = search(size)
        if found is not None:
            result = sorted(found)
            break
        if aborted:
            break

    if result is None:
        # caps hit before any feasible set was proven; fall back to clearing
        result = clearing_members
    return Batch(
        points=[pts[i] for i in result],
        k_requested=k,
        d_min=d_min,
        method="exact",
        complete=len(result) == k,
        proved_optimal=not aborted,
    )


def verify_batch(batch: Batch, d_min: float, portfolio=None) -> bool:
    """Check pairwise feasibility (closed inequality) and, given the source
    portfolio, the leader rule."""
    pts = batch.points
    xs = np.asarray([p.x for p in pts])
    for i in range(len(pts)):
        if np.any(distances(xs[i + 1 :], xs[i]) < d_min):
            return False
    if portfolio is not None and pts:
        leader = min(_portfolio_points(portfolio), key=fitness_key)
        if pts[0].eval_index != leader.eval_index:
            return False
    return True


def batch_to_dict(batch: Batch) -> dict:
    return {
        "method": batch.method,
        "k_requested": batch.k_requested,
        "d_min": batch.d_min,
        "complete": batch.complete,
        "proved_optimal": batch.proved_optimal,
        "points": [
            {"eval_index": p.eval_index, "x": [float(v) for v in p.x], "f": float(p.f)}
            for p in batch.points
        ],
    }


def write_batch(batch: Batch, path: str | Path) -> None:
    Path(path).write_text(json.dumps(batch_to_dict(batch), indent=2) + "\n")
