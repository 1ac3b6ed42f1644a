"""Batch subset selection from evaluation portfolios.

Given every point an optimizer evaluated, pick k of them that are pairwise
at least ``d_min`` apart with fitness values as low as possible.  The
batch leader is always the portfolio's best point; feasibility uses the
closed inequality, so a pair at exactly ``d_min`` is valid.

Three selectors with increasing cost: ``clearing_select`` (one greedy
sweep), ``greedy_select`` (swap repair over an ascending distance
schedule), and ``exact_select`` (branch and bound over fitness-sorted
subsets, provably optimal within its caps).

All distances are Euclidean, computed by ``boxes.distances``, so every
selector and ``verify_batch`` agree on which pairs are feasible, down to
the last bit at exactly ``d_min``.  Custom metrics are not supported.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .boxes import distances
from .trajectory import EvaluatedPoint, Trajectory

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
    return sorted(points, key=lambda p: (p.f, p.eval_index))


def clearing_select(portfolio, k: int, d_min: float) -> Batch:
    """Pick the best point, clear everything strictly closer than d_min, repeat.

    Runs until k points are picked or the portfolio is exhausted; in the
    latter case the batch is returned incomplete.
    """
    pts = _sorted_by_fitness(_portfolio_points(portfolio))
    xs = np.asarray([p.x for p in pts])
    alive = np.ones(len(pts), dtype=bool)
    picked: list[EvaluatedPoint] = []
    while len(picked) < k and alive.any():
        i = int(np.argmax(alive))
        picked.append(pts[i])
        keep = distances(xs[alive], xs[i]) >= d_min
        alive[np.flatnonzero(alive)] = keep
        alive[i] = False
    return Batch(
        points=picked,
        k_requested=k,
        d_min=d_min,
        method="clearing",
        complete=len(picked) == k,
    )


def _drop_offenders(xs: np.ndarray, members: list[int], d_min: float) -> list[int]:
    """Remove non-leader members with the most d_min violations until feasible."""
    members = list(members)
    while True:
        sub = xs[members]
        close = distances(sub[:, None], sub[None]) < d_min
        np.fill_diagonal(close, False)
        counts = dict(zip(members, close.sum(axis=1)))
        offenders = [m for m in members[1:] if counts[m]]
        if not offenders:
            return members
        # most violations first; ties drop the worse point (higher index)
        worst = max(offenders, key=lambda m: (counts[m], m))
        members.remove(worst)


def greedy_select(
    portfolio,
    k: int,
    d_min: float,
    schedule_steps: int = 10,
) -> Batch:
    """Repair the k best points into a feasible batch by swapping.

    The distance requirement is tightened over an ascending schedule of
    thresholds ending exactly at ``d_min``.  At each threshold the closest
    violating pair is resolved by replacing one of its members (preferring
    to keep the fitter one; the leader is never evicted) with the best
    unused point that fits.  If no repair exists, the current members are
    reduced to a feasible subset and returned incomplete.
    """
    pts = _sorted_by_fitness(_portfolio_points(portfolio))
    xs = np.asarray([p.x for p in pts])
    n = len(pts)

    def build(members: list[int], complete: bool) -> Batch:
        return Batch(
            points=[pts[m] for m in sorted(members)],
            k_requested=k,
            d_min=d_min,
            method="greedy",
            complete=complete,
        )

    if n < k:
        reduced = _drop_offenders(xs, list(range(n)), d_min)
        return build(reduced, False)

    members = list(range(k))

    def replacement(kept: list[int], threshold: float) -> int | None:
        """Best unused point at least ``threshold`` from every kept member."""
        fits = np.ones(n, dtype=bool)
        for m in kept:
            fits &= distances(xs, xs[m]) >= threshold
        fits[kept] = False
        return int(np.argmax(fits)) if fits.any() else None

    for step in range(1, schedule_steps + 1):
        threshold = d_min if step == schedule_steps else d_min * step / schedule_steps
        while True:
            sub = xs[members]
            dist = distances(sub[:, None], sub[None])
            violating = [
                (dist[i, j], min(a, b), max(a, b))
                for i, a in enumerate(members)
                for j, b in enumerate(members[i + 1 :], i + 1)
                if dist[i, j] < threshold
            ]
            if not violating:
                break
            # the closest pair first; ties go to the pair with the fitter members
            _, better, worse = min(violating)
            kept = [m for m in members if m != worse]
            swap_in = replacement(kept, threshold)
            if swap_in is not None:
                members = kept + [swap_in]
                continue
            if better != members[0]:
                # no point fits next to the better member; try evicting it instead
                kept = [m for m in members if m != better]
                swap_in = replacement(kept, threshold)
                if swap_in is not None:
                    members = kept + [swap_in]
                    continue
            reduced = _drop_offenders(xs, sorted(members), d_min)
            return build(reduced, False)

    # schedule ended at threshold == d_min, so members are feasible by now
    feasible = _drop_offenders(xs, sorted(members), d_min)
    return build(feasible, len(feasible) == k)


def _compat_masks(pts: list[EvaluatedPoint], d_min: float) -> list[int]:
    xs = np.asarray([p.x for p in pts])
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
    feasible batch of maximum size.  ``proved_optimal`` reports whether
    the search ran to completion within the caps.
    """
    pts = _sorted_by_fitness(_portfolio_points(portfolio))
    n = len(pts)
    fs = np.asarray([p.f for p in pts])
    masks = _compat_masks(pts, d_min)
    index_of = {p.eval_index: i for i, p in enumerate(pts)}

    clearing = clearing_select(pts, k, d_min)
    clearing_members = sorted(index_of[p.eval_index] for p in clearing.points)

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
                if cur_sum < best_sum:
                    best_sum = cur_sum
                    best_set = chosen.copy()
                return
            need = size - count
            rem = cand
            while rem:
                if rem.bit_count() < need:
                    return
                if cur_sum + _smallest_fitness_sum(rem, need, fs) >= best_sum:
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
        source = _sorted_by_fitness(_portfolio_points(portfolio))
        if pts[0].eval_index != source[0].eval_index:
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
