"""Cascading CMA-ES diversity search.

Runs k CMA-ES instances in synchronized rounds.  Each instance owns a tabu
region, the ball of radius ``d_min`` around its center, and the cascade
orders the instances: instance i discards any candidate closer than
``d_min`` to the center of an instance earlier in the cascade, so instance
0 searches unconstrained while later instances are pushed away from the
territory already claimed.  Rejected candidates are never evaluated and
cost no budget; the run always spends exactly the requested number of
objective evaluations.

Each instance takes one step per generation: ``cma.ask_clear`` draws the
candidates that lie in the box and clear of the earlier centers, one
``fn.evaluate_many`` call evaluates them, and ``tell`` updates the state.
The objective must therefore provide its search ``box`` and
``evaluate_many`` (an (n, D) array in, n values out).  The sampler keeps
the draws past the step's stop in ``z_spare`` for the instance's next
step, so each candidate gets the normals it would get, and every run is
bit-identical to filtering one candidate at a time.

An epoch's tabu centers are one (k, D) array.  Instance i samples clear of
its rows ``:i`` and then writes its own center into row i: the step's best
point (``population_best``), the best point it has evaluated
(``best_so_far``) or its CMA-ES mean (``distribution_mean``).  The run
returns its trajectory and a ``CascadeLog``, the one record of its steps:
every instance step's generation, instance, evaluation count and center
after it, as columns, plus each epoch's first generation and means.

An instance is its ``CmaState``, and it has stopped once the state has a
``stop_reason``: a CMA-ES stopping criterion set by ``tell``, or
``"stalled"`` when the rejection cap starved it of clear candidates.  A
stopped instance's center freezes at the best point it evaluated and keeps
repelling the others.  Every epoch starts when every instance has stopped,
the first one included: the cascade starts fresh instances from a fresh
set of mutually distant means, and the old instances, and their regions
with them, are retired.

All distances are Euclidean, computed by ``boxes.distances`` and compared
with the closed inequality: a point exactly ``d_min`` from a center or an
earlier mean is admitted.  Custom metrics are not supported.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import Box, distances
# ask_one stays a module attribute: perfbench's traced pass wraps it by name
from .cma import CmaParams, CmaState, ask_clear, ask_one, init_cma, tell  # noqa: F401
from .trajectory import EmptyPortfolio, Trajectory, _check_int, _write_rows, fitness_keys

__all__ = [
    "CENTER_STRATEGIES",
    "CascadeLog",
    "DsConfig",
    "InfeasibleInitialization",
    "init_diverse_means",
    "run_ds",
]

CENTER_POPULATION_BEST = "population_best"
CENTER_BEST_SO_FAR = "best_so_far"
CENTER_DISTRIBUTION_MEAN = "distribution_mean"
CENTER_STRATEGIES = (CENTER_POPULATION_BEST, CENTER_BEST_SO_FAR, CENTER_DISTRIBUTION_MEAN)

STALLED = "stalled"


class InfeasibleInitialization(RuntimeError):
    """Mutually distant starting means could not be sampled."""


@dataclass(frozen=True)
class DsConfig:
    """Configuration for one diversity-search run.

    ``budget`` is the total number of objective evaluations; candidates
    rejected by the cascade do not count against it.  An instance that
    draws 100 * lambda rejected candidates in one generation stalls.
    A bad request raises when it is built:
    ValueError for an unknown center strategy, for a k, budget or seed
    that is not a Python or numpy int (a bool is not), for a k below 1 or
    a seed below 0 (``trajectory._check_int`` words these), and for a
    d_min that is not a real number (a bool is not) or is NaN;
    EmptyPortfolio for a budget below 1.
    """

    k: int
    d_min: float
    budget: int
    center_strategy: str = CENTER_POPULATION_BEST
    seed: int = 0

    def __post_init__(self) -> None:
        if self.center_strategy not in CENTER_STRATEGIES:
            raise ValueError(f"unknown center strategy {self.center_strategy!r}")
        _check_int("k", self.k, 1)
        _check_int("budget", self.budget)
        if self.budget < 1:
            # run_ds starts its first epoch inside its loop, so every run
            # draws its means at least once
            raise EmptyPortfolio(f"budget must be >= 1, got {self.budget}")
        _check_int("seed", self.seed, 0)
        if isinstance(self.d_min, bool) or not isinstance(self.d_min, numbers.Real):
            raise ValueError(f"d_min must be a real number, got {self.d_min!r}")
        if math.isnan(self.d_min):
            # no distance is >= NaN: every instance past the first would be starved
            raise ValueError("d_min must not be NaN")


@dataclass(eq=False)
class CascadeLog:
    """Every instance step of a run, as columns, for replay and plots.

    Row r is the step of instance ``instance[r]`` in generation
    ``generation[r]``: it evaluated ``evaluations[r]`` trajectory rows (0
    for a stopped or starved instance), and ``centers[r]`` of the (rows,
    D) ``centers`` is the instance's center after it.  Epoch e started at
    generation ``epoch_starts[e]`` from the means ``epoch_means[e]``, a
    (k, D) array.  Per trajectory row, the instance is
    ``np.repeat(instance, evaluations)``, the generation
    ``np.repeat(generation, evaluations)``, and the epoch that generation's
    ``np.searchsorted(epoch_starts, generation, side="right") - 1``.
    """

    generation: np.ndarray
    instance: np.ndarray
    evaluations: np.ndarray
    centers: np.ndarray
    epoch_starts: np.ndarray
    epoch_means: np.ndarray
    total_rejections: int = 0

    def write(self, path: str | Path) -> None:
        """One CSV line per row, centers as ``trajectory.format_rows`` writes them.

        ``evaluations`` is not written.  Written in blocks of rows by the
        trajectory writer's ``_write_rows``.
        """
        coords = ",".join(f"x{i}" for i in range(self.centers.shape[1]))
        header = f"generation,instance,{coords}"
        _write_rows(path, header, self.generation, self.instance, [self.centers])


def _clear_of(x: np.ndarray, centers: np.ndarray, d_min: float) -> bool:
    """True iff ``x`` is at least ``d_min`` from every row of ``centers``.

    A point exactly ``d_min`` away passes; with no centers (instance 0)
    every point does.  ``cma.ask_clear`` applies the same test to a block.
    """
    return bool((distances(centers, x) >= d_min).all())


# Stage 1 of ``init_diverse_means`` draws at most this many points for one
# mean before the k means are picked by ``_dispersed_means`` instead.
_DRAW_CAP = 100_000
# A stage-1 block of n draws against i accepted means takes n * i * D
# differences; no block takes more than this many (one draw always fits).
_BLOCK_VALUES = 1 << 18


def init_diverse_means(k: int, box: Box, d_min: float, rng: np.random.Generator) -> np.ndarray:
    """Sample k uniform points pairwise at least ``d_min`` apart, as a (k, D) array.

    Stage 1 accepts the first uniform draw at least ``d_min`` from every
    mean accepted so far, one mean at a time.  It tests a block of draws
    in one ``distances`` call, then restores the generator to the block's
    start and re-draws only the rows up to the accepted one, so the means
    and the generator's position are those of drawing one point at a
    time.  Blocks start at one draw and double.  When a mean takes
    ``_DRAW_CAP`` draws, the k means are picked by ``_dispersed_means``
    instead.  Raises InfeasibleInitialization when k >= 2 and ``d_min``
    exceeds the box diameter (one mean needs no distance), or when even
    the dispersed points are closer than ``d_min``.
    """
    if k >= 2 and d_min > box.diameter:
        raise InfeasibleInitialization(
            f"d_min={d_min} exceeds the box diameter {box.diameter:.6g}"
        )
    means = np.empty((k, box.dimension))
    for i in range(k):
        n, draws = 1, 0
        while draws < _DRAW_CAP:
            n = min(n, _DRAW_CAP - draws, max(1, _BLOCK_VALUES // (max(i, 1) * box.dimension)))
            start = rng.bit_generator.state
            block = box.sample_uniform(rng, n)
            clear = (distances(means[:i], block[:, None]) >= d_min).all(axis=1)
            j = int(clear.argmax())
            if clear[j]:
                if j < n - 1:
                    # the draws after the accepted one are not taken
                    rng.bit_generator.state = start
                    box.sample_uniform(rng, j + 1)
                means[i] = block[j]
                break
            draws += n
            n *= 2
        else:
            return _dispersed_means(k, box, d_min, rng)
    return means


def _dispersed_means(k: int, box: Box, d_min: float, rng: np.random.Generator) -> np.ndarray:
    """k points by farthest-point (max-min) dispersion (Gonzalez, 1985), as a (k, D) array.

    The pool holds 4096 random box corners, the box center and 4096
    uniform points.  The first corner is the first pick, and each next
    pick is the pool point farthest from the picks so far, so the last
    pick's distance is the closest pair's.  The picks are made over the
    corners and center first and over the whole pool only if those fall
    short, since uniform points can beat corners that would fit (all
    corners of a cube at its side apart).  Unlike sequential rejection,
    this finds spread-out sets such as the corners and center of a square.
    """
    n = 4096
    corners = np.where(rng.random((n, box.dimension)) < 0.5, box.lower, box.upper)
    pool = np.vstack([corners, (box.lower + box.upper) / 2, box.sample_uniform(rng, n)])
    for candidates in (pool[: n + 1], pool):
        picks, gap, closest = [0], distances(candidates, candidates[0]), math.inf
        while len(picks) < k:
            picks.append(int(np.argmax(gap)))
            closest = gap[picks[-1]]
            gap = np.minimum(gap, distances(candidates, candidates[picks[-1]]))
        if closest >= d_min:
            return candidates[picks]
    raise InfeasibleInitialization(
        f"no {k} points at distance >= {d_min}: sequential rejection hit its draw cap "
        f"and the closest pair of a farthest-point set is {closest:.6g} apart"
    )


def run_ds(config: DsConfig, fn) -> tuple[Trajectory, CascadeLog]:
    """Run the cascading diversity search until the budget is spent.

    Returns the evaluation trajectory and the run's ``CascadeLog``.  The
    trajectory holds exactly ``config.budget`` points unless
    initialization is infeasible, which raises.
    """
    box = fn.box
    dim = box.dimension
    params = CmaParams(dim)
    lam, mu = params.lambda_, params.mu
    k, d_min, budget = config.k, config.d_min, config.budget
    if budget < k * lam:
        warnings.warn(
            f"budget {budget} is below one full round (k*lambda = {k * lam}); "
            "later instances may never sample",
            stacklevel=2,
        )

    root = np.random.SeedSequence(config.seed)
    init_ss, seed_ss = root.spawn(2)
    init_rng = np.random.default_rng(init_ss)
    seed_rng = np.random.default_rng(seed_ss)

    # the rows of each instance step that evaluated any; every instance
    # step's (generation, instance, evaluations) and center after it; and
    # each epoch's first generation and means
    xs_blocks: list[np.ndarray] = [np.empty((0, dim))]
    fs_blocks: list[np.ndarray] = [np.empty(0)]
    steps: list[tuple[int, int, int]] = []
    step_centers: list[np.ndarray] = []
    epoch_starts: list[int] = []
    epoch_means: list[np.ndarray] = []
    rejections_total = 0
    evals = 0
    generation = 0
    states: list[CmaState] = []

    while evals < budget:
        if all(state.stop_reason is not None for state in states):
            # a new epoch, the first one included: fresh instances from
            # fresh diverse means; row i of centers is instance i's tabu
            # center, and instance i avoids rows :i
            centers = init_diverse_means(k, box, d_min, init_rng)
            epoch_starts.append(generation)
            epoch_means.append(centers.copy())
            states = [init_cma(c, int(seed_rng.integers(2**63)), box) for c in centers]
            # each instance's best evaluated point and its fitness_keys value
            best_xs: list[np.ndarray | None] = [None] * k
            best_keys = [math.inf] * k
        for i, state in enumerate(states):
            if evals >= budget:
                break
            start = evals
            if state.stop_reason is None:
                # earlier centers hold still while this instance samples
                xs, rejections = ask_clear(
                    state, min(lam, budget - evals), centers[:i], d_min, 100 * lam
                )
                rejections_total += rejections
                if len(xs):
                    fs = np.asarray(fn.evaluate_many(xs), dtype=float)
                    xs_blocks.append(xs)
                    fs_blocks.append(fs)
                    # the step's best, the earliest row among ties
                    keys = fitness_keys(fs)
                    b = int(np.argmin(keys))
                    if best_xs[i] is None or keys[b] < best_keys[i]:
                        best_xs[i], best_keys[i] = xs[b], keys[b]
                evals += len(xs)
                if len(xs) >= mu:
                    tell(state, xs, fs)
                    centers[i] = (
                        xs[b]
                        if config.center_strategy == CENTER_POPULATION_BEST
                        else best_xs[i]
                        if config.center_strategy == CENTER_BEST_SO_FAR
                        else state.mean
                    )
                elif evals < budget:
                    # the rejection cap starved this instance: stop it for good
                    state.stop_reason = STALLED
                # with the budget gone and fewer than mu points, the partial
                # population is discarded and the run simply ends
                if state.stop_reason is not None and best_xs[i] is not None:
                    # stopped by tell or stalled: the center freezes at its best
                    centers[i] = best_xs[i]
            steps.append((generation, i, evals - start))
            step_centers.append(centers[i].copy())
        generation += 1

    generations, instance, evaluations = np.array(steps, dtype=np.int64).reshape(-1, 3).T
    log = CascadeLog(
        generation=generations,
        instance=instance,
        evaluations=evaluations,
        centers=np.array(step_centers).reshape(-1, dim),
        epoch_starts=np.array(epoch_starts, dtype=np.int64),
        epoch_means=np.array(epoch_means),
        total_rejections=rejections_total,
    )
    trajectory = Trajectory(
        xs=np.concatenate(xs_blocks),
        fs=np.concatenate(fs_blocks),
        instance_id=np.repeat(instance, evaluations),
    )
    return trajectory, log
