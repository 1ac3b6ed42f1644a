"""Batch subset selection from evaluation portfolios.

Given the ``Trajectory`` of every point an optimizer evaluated, pick k of
its rows that are pairwise at least ``d_min`` apart with fitness values as
low as possible.  The batch leader is always the portfolio's best point;
rows are ranked by ``trajectory.fitness_keys``, so a NaN fitness ranks last
and never leads.  Feasibility uses the closed inequality, so a pair at
exactly ``d_min`` is valid.  A ``Batch`` holds its members as columns,
like the trajectory it was picked from.

Three selectors with increasing cost: ``clearing_select`` (one
best-first sweep), ``greedy_select`` (repairs the clearing batch by
dropping one member and re-sweeping; it is never smaller than the
clearing batch and, at equal size, never has a higher fitness sum), and
``exact_select`` (one branch-and-bound search over fitness-sorted subsets
from the clearing incumbent, keeping the largest feasible set and then
the lowest fitness sum, provably optimal within the work cap ``WORK_CAP``,
counted in nodes and distances, never in seconds).

All distances are Euclidean, computed by ``boxes.distances``, so every
selector and ``verify_batch`` agree on which pairs are feasible, down to
the last bit at exactly ``d_min``.  Custom metrics are not supported.
The exact selector searches only the leader and the points at least
``d_min`` from it, since every other member of a batch is one of them.
It builds a point's compatibility mask with the same kernel, when its
search first extends a set that ends in that point, unless the bounding
box of the later points has no corner ``d_min`` or more from it: no
later point can then be, because rounding is monotone, so the row is
known to be empty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import distances
from .trajectory import EmptyPortfolio, EvaluatedPoint, Trajectory, _check_int, fitness_keys

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


@dataclass(eq=False)
class Batch:
    """A diverse solution batch as columns; row 0 is the leader.

    ``xs`` (n x D), ``fs``, ``eval_index`` and ``instance_id`` hold the
    members in batch order.  The batch is ``complete`` when it holds
    ``k_requested`` members.
    """

    xs: np.ndarray
    fs: np.ndarray
    eval_index: np.ndarray
    instance_id: np.ndarray
    k_requested: int
    d_min: float
    method: str
    proved_optimal: bool = False

    @property
    def complete(self) -> bool:
        return len(self) == self.k_requested

    # points stays only for perfbench's output checks; nothing in the package reads it
    @property
    def points(self) -> list[EvaluatedPoint]:
        """Every member as a point, built on each access; each ``x`` is a row view."""
        return [
            EvaluatedPoint(x=x, f=f, eval_index=i, instance_id=j)
            for x, f, i, j in zip(
                self.xs, self.fs.tolist(), self.eval_index.tolist(), self.instance_id.tolist()
            )
        ]

    def fitness_sum(self) -> float:
        """The members' f summed in ``_sum_key`` order, so never NaN.

        +inf if a member's f is NaN or +inf, else -inf if one is -inf,
        else the plain sum.
        """
        pinf, ninf, total = _sum_key(fitness_keys(self.fs).tolist())
        return math.inf if pinf else -math.inf if ninf else float(total)

    def __len__(self) -> int:
        return len(self.fs)


def _ranked(portfolio: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xs, fs, eval_index, instance_id) of a trajectory's rows in ``fitness_keys`` order.

    Row i is evaluation i, so the stable sort's order is the eval_index.
    """
    fs = np.asarray(portfolio.fs, dtype=float)
    if not len(fs):
        raise EmptyPortfolio("portfolio has no points")
    order = np.argsort(fitness_keys(fs), kind="stable")
    xs = np.asarray(portfolio.xs, dtype=float)
    return xs[order], fs[order], order, portfolio.instance_id[order]


def _sweep(
    xs: np.ndarray, picked: list[int], k: int, d_min: float, banned: int | None = None
) -> list[int]:
    """Extend ``picked`` best-first to at most k feasible members.

    ``xs`` holds the fitness-sorted points.  Everything strictly closer
    than ``d_min`` to a picked point is cleared, as is ``banned``; the best
    remaining point is picked next, until k are picked or none is left.
    Every row before a new pick is already cleared, so only the rows from
    the pick on are tested against it; the kernel gives a row the same
    bits in any slice, so the picks are those of a full-length test.
    Every selector sweeps, so this is where a k that is not an int (a
    bool is not), or is below 1, which no batch with a leader can meet,
    raises ValueError.
    """
    _check_int("k", k, 1)
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
        alive[i:] &= distances(xs[i:], xs[i]) >= d_min
        alive[i] = False
    return picked


def _batch(
    ranked: tuple, members: list[int], k: int, d_min: float, method: str, proved: bool = False
) -> Batch:
    # one fancy index per ranked column: xs, fs, eval_index and instance_id
    return Batch(
        *(column[members] for column in ranked),
        # a Python int, which the batch file can hold where a numpy one cannot
        k_requested=int(k),
        d_min=d_min,
        method=method,
        proved_optimal=proved,
    )


def clearing_select(portfolio: Trajectory, k: int, d_min: float) -> Batch:
    """Pick the best point, clear everything strictly closer than d_min, repeat.

    Runs until k points are picked or the portfolio is exhausted; in the
    latter case the batch is returned incomplete.
    """
    ranked = _ranked(portfolio)
    return _batch(ranked, _sweep(ranked[0], [], k, d_min), k, d_min, "clearing")


def greedy_select(portfolio: Trajectory, k: int, d_min: float) -> Batch:
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


def _empty_rows(xs: np.ndarray, d_min: float) -> np.ndarray:
    """Positions a whose mask row is provably empty without building it.

    The later points ``xs[a + 1 :]`` lie in their bounding box; the
    box's farthest corner from ``xs[a]`` is, per coordinate, the larger of
    ``|xs[a] - lo|`` and ``|xs[a] - hi|``.  Row a is empty when that corner
    is closer than ``d_min``: rounding is monotone and the kernel sums
    every row in the same order, so no computed distance from ``xs[a]`` to
    a later point exceeds the corner's.  A NaN or an infinity makes the
    corner NaN or inf, and such a row is never returned.  The last
    position, which has no later points, is not returned either.
    """
    later = xs[:0:-1]  # the suffix of position a is row a of the reversed accumulations
    lo = np.minimum.accumulate(later)[::-1]
    hi = np.maximum.accumulate(later)[::-1]
    # inf - inf and overflowing differences are meant: they leave the row built
    with np.errstate(invalid="ignore", over="ignore"):
        corner = np.maximum(np.abs(xs[:-1] - lo), np.abs(xs[:-1] - hi))
    return np.flatnonzero(distances(corner, 0.0) < d_min)


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


# The exact search's cap, in work, not seconds, so a capped search returns
# the same batch on every machine: per node one unit and one more per 4096
# points of the sub-portfolio, as its masks are that wide, one per 256
# distances of a mask row, and one per _VALUES_PER_UNIT fitness values a
# bound sums or an incumbent copies, so a unit costs about the same at any
# k: each about 3-4 µs on a 2-vCPU VM at D=10.
WORK_CAP = 10_000_000
_VALUES_PER_UNIT = 16


def exact_select(portfolio: Trajectory, k: int, d_min: float) -> Batch:
    """Optimal batch by branch and bound, within the work cap ``WORK_CAP``.

    One depth-first search over fitness-sorted subsets containing the
    leader, with the clearing batch as the starting incumbent.  Every node
    is a feasible set, so each is a candidate: the largest set wins, then
    the lowest fitness sum (NaN counted as +inf, compared by ``_sum_key``),
    and the first one found wins a tie.  A branch is pruned when it cannot
    reach the incumbent's size, or when it cannot grow past that size and a
    fitness-sum lower bound shows it cannot beat the incumbent's sum.  The
    search is one loop over an explicit stack, so no recursion limit bounds
    its depth.

    The search runs over the leader's sub-portfolio: the leader and, in
    rank order, the points its row keeps, which every other member must be
    among.  After the leader the clearing sweep's live rows are exactly
    these, so the incumbent, the sets visited and their order are those of
    a search over the whole portfolio.  The leader's mask row is thus every
    later point.  Another point's row, the later points at least ``d_min``
    from it by ``boxes.distances``, is built when the search first extends
    a set that ends in it; the work cap is checked before each new row.  A
    row is seeded empty, and never built, when the farthest corner of its
    later points' bounding box is closer than ``d_min`` (``_empty_rows``).
    That is exact: no computed distance to a point inside the box exceeds
    the computed distance to that corner.  ``proved_optimal`` reports
    whether the search ran to completion within ``WORK_CAP``; assign
    ``divbatch.selection.WORK_CAP`` to change the cap.
    """
    ranked = _ranked(portfolio)
    # the leader and, in rank order, the points its row keeps: every other
    # member of any batch is among them
    compatible = distances(ranked[0], ranked[0][0]) >= d_min
    compatible[0] = True
    keep = np.flatnonzero(compatible)
    xs, fs = ranked[0][keep], fitness_keys(ranked[1][keep]).tolist()
    # after the leader the live rows are exactly these, so this is the
    # clearing batch
    best = _sweep(xs, [], k, d_min)
    best_sum = _sum_key([fs[i] for i in best])

    rows = dict.fromkeys(_empty_rows(xs, d_min).tolist(), 0)
    # every later point is at least d_min from the leader, by construction
    rows[0] = (1 << len(fs)) - 2
    # stack entry d: member d, the sum of members 0..d and the candidates
    # left to extend them with; the next set to visit adds b to the stack,
    # and rem holds its parent's candidates after b
    members, totals, rems = [], [], []
    b, total, rem, work = 0, _sum_key([fs[0]]), rows[0], 0
    node_work = 1 + len(fs) // 4096
    while True:
        work += node_work
        if work > WORK_CAP:
            break
        members.append(b)
        totals.append(total)
        size = len(members)
        if size > len(best) or (size == len(best) and total < best_sum):
            best, best_sum = members.copy(), total
            work += size // _VALUES_PER_UNIT
        if size < k and b not in rows:
            work += (len(fs) - b - 1) // 256
            if work > WORK_CAP:
                break
            rows[b] = _compat_masks(xs, b, d_min)
        # a full set has no candidates, and needs no row
        rems.append(rem & rows[b] if size < k else 0)
        # back up to the deepest set that has a candidate worth trying
        while members:
            rem, size = rems[-1], len(members)
            reach = size + rem.bit_count()
            if rem and reach >= len(best):
                # a set that can still outgrow the incumbent needs no bound
                if reach > len(best) and len(best) < k:
                    break
                need = len(best) - size
                work += need // _VALUES_PER_UNIT
                if _plus(totals[-1], _smallest_fitness_sum(rem, need, fs)) < best_sum:
                    break
            del members[-1], totals[-1], rems[-1]
        if not members:
            break
        b = (rem & -rem).bit_length() - 1
        rems[-1] = rem = rem & (rem - 1)
        total = _plus(totals[-1], _sum_key([fs[b]]))
    return _batch(ranked, keep[best], k, d_min, "exact", proved=work <= WORK_CAP)


def verify_batch(batch: Batch, d_min: float, portfolio: Trajectory | None = None) -> bool:
    """Check pairwise feasibility (closed inequality) and, given the source
    portfolio, the leader rule."""
    xs = batch.xs
    for i in range(len(xs)):
        # as in the selectors, a pair is feasible only where ``>=`` holds, so
        # a NaN distance or a NaN d_min fails
        if not np.all(distances(xs[i + 1 :], xs[i]) >= d_min):
            return False
    if portfolio is not None and len(batch):
        # ``best()`` is the first row of the stable sort ``_ranked`` makes,
        # and raises ``EmptyPortfolio`` on an empty portfolio as ``_ranked`` does
        if batch.eval_index[0] != portfolio.best():
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
            {"eval_index": i, "x": x, "f": f}
            for i, x, f in zip(batch.eval_index.tolist(), batch.xs.tolist(), batch.fs.tolist())
        ],
    }


def write_batch(batch: Batch, path: str | Path) -> None:
    Path(path).write_text(json.dumps(batch_to_dict(batch), indent=2) + "\n")
