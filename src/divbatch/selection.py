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
``exact_select`` (one branch-and-bound search over fitness-sorted subsets
from the clearing incumbent, keeping the largest feasible set and then
the lowest fitness sum, provably optimal within its caps).

All distances are Euclidean, computed by ``boxes.distances``, so every
selector and ``verify_batch`` agree on which pairs are feasible, down to
the last bit at exactly ``d_min``.  Custom metrics are not supported.
The exact selector builds a point's compatibility mask with the same
kernel, when its search first extends a set that ends in that point.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import distances
from .trajectory import EvaluatedPoint, Trajectory, fitness_keys

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


def _ranked(portfolio) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xs, fs, eval_index, instance_id) of a portfolio's rows in ``fitness_key`` order.

    A portfolio is a ``Trajectory`` or a list of points; the points are
    put in eval_index order, so one stable sort by fitness ranks both.
    """
    if isinstance(portfolio, Trajectory):
        xs, fs, ids = portfolio.xs, portfolio.fs, portfolio.instance_id
        stamps = np.arange(len(fs))
    else:
        points = sorted(portfolio, key=lambda p: p.eval_index)
        xs = np.asarray([p.x for p in points])
        fs = np.asarray([p.f for p in points], dtype=float)
        stamps = np.asarray([p.eval_index for p in points], dtype=np.int64)
        ids = np.asarray([p.instance_id for p in points], dtype=np.int64)
    if not len(fs):
        raise EmptyPortfolio("portfolio has no points")
    order = np.argsort(fitness_keys(fs), kind="stable")
    return xs[order], fs[order], stamps[order], ids[order]


def _sweep(
    xs: np.ndarray, picked: list[int], k: int, d_min: float, banned: int | None = None
) -> list[int]:
    """Extend ``picked`` best-first to at most k feasible members.

    ``xs`` holds the fitness-sorted points.  Everything strictly closer
    than ``d_min`` to a picked point is cleared, as is ``banned``; the best
    remaining point is picked next, until k are picked or none is left.
    Every selector sweeps, so this is where a k below 1, which no batch
    with a leader can meet, raises ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    ranked: tuple, members: list[int], k: int, d_min: float, method: str, proved: bool = False
) -> Batch:
    xs, fs, stamps, ids = (column[members] for column in ranked)
    return Batch(
        points=[
            EvaluatedPoint(x=x, f=f, eval_index=i, instance_id=j)
            for x, f, i, j in zip(xs, fs.tolist(), stamps.tolist(), ids.tolist())
        ],
        k_requested=k,
        d_min=d_min,
        method=method,
        complete=len(members) == k,
        proved_optimal=proved,
    )


def clearing_select(portfolio, k: int, d_min: float) -> Batch:
    """Pick the best point, clear everything strictly closer than d_min, repeat.

    Runs until k points are picked or the portfolio is exhausted; in the
    latter case the batch is returned incomplete.
    """
    ranked = _ranked(portfolio)
    return _batch(ranked, _sweep(ranked[0], [], k, d_min), k, d_min, "clearing")


def greedy_select(portfolio, k: int, d_min: float) -> Batch:
    """Repair the clearing batch by dropping one member and refilling.

    Starting from the clearing picks, each non-leader member is dropped in
    turn, worst first, and the gap is refilled by a clearing sweep that
    skips the dropped point.  The first refill that is larger, or as large
    with a lower fitness sum, replaces the batch and the loop starts over.
    The result is never smaller than the clearing batch and, at equal
    size, never has a higher fitness sum.
    """
    ranked = _ranked(portfolio)
    # NaN counts as +inf, and ``_sum_key`` compares a sum holding -inf and +inf
    xs, fs = ranked[0], fitness_keys(ranked[1]).tolist()

    def rank(members: list[int]) -> tuple:
        return -len(members), _sum_key([fs[i] for i in members])

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
    return _batch(ranked, members, k, d_min, "greedy")


def _compat_masks(xs: np.ndarray, i: int, d_min: float) -> int:
    """Mask row i above the diagonal: bit j > i is set iff ``distances(xs[j], xs[i]) >= d_min``."""
    ok = distances(xs[i + 1 :], xs[i]) >= d_min
    return int.from_bytes(np.packbits(ok, bitorder="little").tobytes(), "little") << (i + 1)


def _sum_key(keys: list[float]) -> tuple[int, int, float]:
    """(+inf count, minus the -inf count, finite sum): ordered as the sum is, never NaN."""
    pinf, ninf = keys.count(math.inf), keys.count(-math.inf)
    if pinf or ninf:
        keys = [f for f in keys if abs(f) < math.inf]
    return pinf, -ninf, sum(keys)


def _plus(a: tuple[int, int, float], b: tuple[int, int, float]) -> tuple[int, int, float]:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def _smallest_fitness_sum(mask: int, need: int, fs: list[float]) -> tuple[int, int, float]:
    # in fitness order the lowest set bits are the cheapest; need is at most popcount(mask)
    lowest = []
    for _ in range(need):
        lowest.append(fs[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return _sum_key(lowest)


def exact_select(
    portfolio,
    k: int,
    d_min: float,
    node_cap: int = 10_000_000,
    time_cap: float = 60.0,
) -> Batch:
    """Optimal batch by branch and bound, subject to node and time caps.

    One depth-first search over fitness-sorted subsets containing the
    leader, with the clearing batch as the starting incumbent.  Every node
    is a feasible set, so each is a candidate: the largest set wins, then
    the lowest fitness sum (NaN counted as +inf, compared by ``_sum_key``),
    and the first one found wins a tie.  A branch is pruned when it cannot
    reach the incumbent's size, or when it cannot grow past that size and a
    fitness-sum lower bound shows it cannot beat the incumbent's sum.  A
    point's mask row, the later points at least ``d_min`` from it by
    ``boxes.distances``, is built when the search first extends a set that
    ends in it; the deadline is checked before each new row.
    ``proved_optimal`` reports whether the search ran to completion within
    the caps.
    """
    ranked = _ranked(portfolio)
    xs, fs = ranked[0], fitness_keys(ranked[1]).tolist()
    best = _sweep(xs, [], k, d_min)
    best_sum = _sum_key([fs[i] for i in best])

    deadline = time.perf_counter() + time_cap
    nodes = 0
    rows: dict[int, int] = {}

    def search(rem: int, members: list[int], total: tuple) -> bool:
        """Visit ``members``, then its extensions by ``rem`` within its last row; True at a cap."""
        nonlocal best, best_sum, nodes
        nodes += 1
        if nodes > node_cap or (nodes % 1024 == 0 and time.perf_counter() > deadline):
            return True
        size = len(members)
        if size > len(best) or (size == len(best) and total < best_sum):
            best, best_sum = members.copy(), total
        if size == k:
            return False
        last = members[-1]
        if last not in rows:
            if time.perf_counter() > deadline:
                return True
            rows[last] = _compat_masks(xs, last, d_min)
        rem &= rows[last]
        while rem:
            reach = size + rem.bit_count()
            if reach < len(best):
                return False
            if (reach == len(best) or len(best) == k) and (
                _plus(total, _smallest_fitness_sum(rem, len(best) - size, fs)) >= best_sum
            ):
                return False
            b = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            members.append(b)
            if search(rem, members, _plus(total, _sum_key([fs[b]]))):
                return True
            members.pop()
        return False

    # every point after the leader; the leader's row clears the ones too close
    aborted = search((1 << len(fs)) - 2, [0], _sum_key([fs[0]]))
    return _batch(ranked, best, k, d_min, "exact", proved=not aborted)


def verify_batch(batch: Batch, d_min: float, portfolio=None) -> bool:
    """Check pairwise feasibility (closed inequality) and, given the source
    portfolio, the leader rule."""
    pts = batch.points
    xs = np.asarray([p.x for p in pts])
    for i in range(len(pts)):
        # as in the selectors, a pair is feasible only where ``>=`` holds, so
        # a NaN distance or a NaN d_min fails
        if not np.all(distances(xs[i + 1 :], xs[i]) >= d_min):
            return False
    if portfolio is not None and pts:
        if pts[0].eval_index != _ranked(portfolio)[2][0]:
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
