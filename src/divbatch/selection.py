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
The exact selector's pairwise compatibility masks are built in blocks of
rows: a Gram-matrix screen (one matrix product per block) decides every
pair whose squared distance is clear of ``d_min**2`` by more than a
rounding band, and ``boxes.distances`` decides the pairs inside the band,
so the masks hold the kernel's bits.
"""

from __future__ import annotations

import json
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
    xs = ranked[0]
    # NaN counts as +inf, so a batch with a NaN member still compares
    fs = fitness_keys(ranked[1]).tolist()

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
    return _batch(ranked, members, k, d_min, "greedy")


# pairs per row block of the masks: 256 KB per float temporary
_MASK_BLOCK_FLOATS = 1 << 15


# huge or non-finite coordinates overflow the screen or meet inf - inf;
# those pairs are left to the kernel, so the warnings carry nothing
@np.errstate(over="ignore", invalid="ignore")
def _compat_masks(xs: np.ndarray, d_min: float) -> list[int]:
    """Bit j of mask i is set iff j != i and ``distances(xs[j], xs[i]) >= d_min``.

    Blocks of rows are screened with the Gram form of the squared distance,
    ``sq_i + sq_j - 2 x_i.x_j``, one BLAS product per block.  Pairs the
    screen cannot decide are decided again by ``distances`` itself, so every
    bit is the one the per-row kernel gives.
    """
    n, dim = xs.shape
    # the screen works in floats; the recheck keeps the caller's array
    xf = np.asarray(xs, dtype=float)
    sq = np.add.reduce(xf * xf, axis=1)
    # signed square: a d_min <= 0 admits every pair at a non-NaN distance
    thr = d_min * abs(d_min)
    # The screen is g = (sq_i - 2 x_i.x_j) + (sq_j - thr), and a pair is
    # decided by g >= 0 where |g| > band = 4 (D + 4) eps (S + |thr|) + tiny,
    # with eps the machine epsilon, tiny the smallest normal float and
    # S = sq_i + sq_j, so the squared distance s is at most 2 S.  For any
    # summation order of the BLAS product, g is within (D + 3) eps S +
    # 1.5 eps |thr| of s - d_min^2.  The kernel's sum t of squared
    # differences is within (D + 2) eps s / 2 <= (D + 3) eps S of s, and its
    # decision sqrt(t) >= d_min holds when t >= d_min^2 and fails when
    # t < (1 - eps) d_min^2.  So the two agree wherever |g| exceeds
    # (2 D + 6) eps S + 3 eps |thr|, which the band covers twice over;
    # tiny covers underflow, whose errors are absolute.  A non-finite g or
    # band leaves the pair to the kernel.
    slack = 4 * (dim + 4) * np.finfo(float).eps
    col_shift = sq - thr
    row_band = slack * sq
    col_band = row_band + (slack * abs(thr) + np.finfo(float).tiny)
    rows = max(1, _MASK_BLOCK_FLOATS // n)
    masks: list[int] = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diag = (np.arange(stop - start), np.arange(start, stop))
        g = xf[start:stop] @ xf.T
        g *= -2.0
        g += sq[start:stop, None]
        g += col_shift
        ok = g >= 0.0
        np.abs(g, out=g)
        sure = g > row_band[start:stop, None] + col_band
        sure &= g < np.inf
        sure[diag] = True
        # one row at a time, so the recheck never holds more than the
        # per-row kernel does, even when d_min is NaN and nothing is sure
        for r in np.flatnonzero(~sure.all(axis=1)):
            j = np.flatnonzero(~sure[r])
            ok[r, j] = distances(xs[j], xs[start + r]) >= d_min
        ok[diag] = False
        packed = np.packbits(ok, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
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

    One depth-first search over fitness-sorted subsets containing the
    leader, with the clearing batch as the starting incumbent.  Every node
    is a feasible set, so each is a candidate: the largest set wins, then
    the lowest fitness sum, and the first one found wins a tie.  A branch
    is pruned when it cannot reach the incumbent's size, or when it cannot
    grow past that size and a fitness-sum lower bound shows it cannot beat
    the incumbent's sum.  The result is the best feasible batch of maximum
    size.  A NaN fitness counts as +inf, so a batch holding one is kept
    when no batch of that size has a finite sum.  ``proved_optimal``
    reports whether the search ran to completion within the caps.
    """
    ranked = _ranked(portfolio)
    xs, fs = ranked[0], fitness_keys(ranked[1])
    masks = _compat_masks(xs, d_min)
    best = _sweep(xs, [], k, d_min)
    best_sum = float(fs[best].sum())

    deadline = time.perf_counter() + time_cap
    nodes = 0

    def search(rem: int, members: list[int], total: float) -> bool:
        """Visit the set ``members`` and its extensions by ``rem``; True once a cap is hit."""
        nonlocal best, best_sum, nodes
        nodes += 1
        if nodes > node_cap or (nodes % 1024 == 0 and time.perf_counter() > deadline):
            return True
        size = len(members)
        if size > len(best) or (size == len(best) and total < best_sum):
            best, best_sum = members.copy(), total
        if size == k:
            return False
        while rem:
            reach = size + rem.bit_count()
            if reach < len(best):
                return False
            if (reach == len(best) or len(best) == k) and (
                total + _smallest_fitness_sum(rem, len(best) - size, fs) >= best_sum
            ):
                return False
            b = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            members.append(b)
            if search(rem & masks[b], members, total + float(fs[b])):
                return True
            members.pop()
        return False

    aborted = search(masks[0], [0], float(fs[0]))
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
