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
The objective must therefore provide ``evaluate_many`` (an (n, D) array
in, n values out).  The sampler keeps the draws past the step's stop in
``z_spare`` for the instance's next step, so each candidate gets the
normals it would get, and every run is bit-identical to filtering one
candidate at a time.

When an instance meets a stopping criterion its center freezes at the best
point it evaluated and keeps repelling the others.  When every instance
has stopped with budget left, the cascade restarts from a fresh set of
mutually distant means; the old instances, and their regions with them,
are retired.

All distances are Euclidean, computed by ``boxes.distances`` and compared
with the closed inequality: a point exactly ``d_min`` from a center or an
earlier mean is admitted.  Custom metrics are not supported.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import Box, distances
# ask_one stays a module attribute: perfbench's traced pass wraps it by name
from .cma import CmaParams, ask_clear, ask_one, init_cma, tell  # noqa: F401
from .trajectory import EvaluatedPoint, Trajectory, fitness_key, fitness_keys, format_rows

__all__ = [
    "CENTER_STRATEGIES",
    "CascadeInstance",
    "CascadeLog",
    "DsConfig",
    "InfeasibleInitialization",
    "NoPopulation",
    "RegionSnapshot",
    "init_diverse_means",
    "run_ds",
    "update_tabu_center",
]

CENTER_POPULATION_BEST = "population_best"
CENTER_BEST_SO_FAR = "best_so_far"
CENTER_DISTRIBUTION_MEAN = "distribution_mean"
CENTER_STRATEGIES = (CENTER_POPULATION_BEST, CENTER_BEST_SO_FAR, CENTER_DISTRIBUTION_MEAN)

STALLED = "stalled"


class InfeasibleInitialization(RuntimeError):
    """Mutually distant starting means could not be sampled."""


class NoPopulation(ValueError):
    """Center update requested from an empty population."""


@dataclass
class DsConfig:
    """Configuration for one diversity-search run.

    ``budget`` is the total number of objective evaluations; candidates
    rejected by the cascade do not count against it.  An instance that
    draws 100 * lambda rejected candidates in one generation stalls.
    """

    k: int
    d_min: float
    budget: int
    center_strategy: str = CENTER_POPULATION_BEST
    seed: int = 0

    def snapshot(self) -> dict:
        return {
            "k": self.k,
            "d_min": self.d_min,
            "budget": self.budget,
            "center_strategy": self.center_strategy,
            "seed": self.seed,
        }


@dataclass
class CascadeInstance:
    """One CMA-ES instance plus its tabu center and bookkeeping.

    ``index`` is also the instance's place in the cascade.
    """

    index: int
    state: object
    center: np.ndarray
    best_point: EvaluatedPoint | None = None
    stopped: bool = False
    stop_cause: str | None = None


@dataclass
class RegionSnapshot:
    generation: int
    instance: int
    center: np.ndarray


@dataclass
class CascadeLog:
    """Generation-stamped record of region movement, for replay and plots.

    The epoch and generation of each evaluation are the trajectory's
    ``epoch`` and ``generation`` columns.
    """

    dimension: int
    snapshots: list[RegionSnapshot] = field(default_factory=list)
    # (epoch, first generation, list of initial means)
    epoch_starts: list[tuple[int, int, list[np.ndarray]]] = field(default_factory=list)
    total_rejections: int = 0

    def write(self, path: str | Path) -> None:
        """One CSV line per snapshot, centers as ``trajectory.format_rows`` writes them."""
        coords = ",".join(f"x{i}" for i in range(self.dimension))
        centers = np.asarray([snap.center for snap in self.snapshots], dtype=float)
        rows = format_rows(centers.reshape(len(self.snapshots), self.dimension))
        lines = [f"generation,instance,{coords}"]
        lines += [
            f"{snap.generation},{snap.instance},{row}" for snap, row in zip(self.snapshots, rows)
        ]
        Path(path).write_text("\n".join(lines) + "\n")


def _clear_of(x: np.ndarray, centers: np.ndarray, d_min: float) -> bool:
    """True iff ``x`` is at least ``d_min`` from every row of ``centers``.

    A point exactly ``d_min`` away passes; with no centers (instance 0)
    every point does.  ``cma.ask_clear`` applies the same test to a block.
    """
    return bool((distances(centers, x) >= d_min).all())


def init_diverse_means(
    k: int,
    box: Box,
    d_min: float,
    rng: np.random.Generator,
    rejection_cap: int = 100_000,
) -> list[np.ndarray]:
    """Sample k uniform points pairwise at least ``d_min`` apart.

    Points are accepted one at a time by rejection against those already
    accepted.  Raises InfeasibleInitialization when ``d_min`` exceeds the
    box diameter or a point exceeds the per-point draw cap.
    """
    if d_min > box.diameter:
        raise InfeasibleInitialization(
            f"d_min={d_min} exceeds the box diameter {box.diameter:.6g}"
        )
    means: list[np.ndarray] = []
    for _ in range(k):
        accepted = np.array(means).reshape(len(means), box.dimension)
        for draws in range(rejection_cap):
            x = box.sample_uniform(rng)
            if (distances(accepted, x) >= d_min).all():
                means.append(x)
                break
        else:
            raise InfeasibleInitialization(
                f"no point at distance >= {d_min} from {len(means)} accepted means "
                f"within {rejection_cap} draws"
            )
    return means


def update_tabu_center(
    instance: CascadeInstance,
    population: list[EvaluatedPoint],
    strategy: str = CENTER_POPULATION_BEST,
) -> np.ndarray:
    """Move the instance's tabu center according to the chosen strategy.

    population_best uses the best point of the current generation (ties by
    lowest eval_index), best_so_far the best point the instance has ever
    evaluated, distribution_mean the current CMA-ES mean.
    """
    if strategy == CENTER_POPULATION_BEST:
        if not population:
            raise NoPopulation("population_best needs a non-empty population")
        best = min(population, key=fitness_key)
        instance.center = best.x.copy()
    elif strategy == CENTER_BEST_SO_FAR:
        best = instance.best_point
        if best is None:
            if not population:
                raise NoPopulation("instance has not evaluated any point yet")
            best = min(population, key=fitness_key)
        instance.center = best.x.copy()
    elif strategy == CENTER_DISTRIBUTION_MEAN:
        instance.center = np.array(instance.state.mean, copy=True)
    else:
        raise ValueError(f"unknown center strategy {strategy!r}")
    return instance.center


def run_ds(
    config: DsConfig,
    fn,
    return_log: bool = False,
) -> Trajectory | tuple[Trajectory, CascadeLog]:
    """Run the cascading diversity search until the budget is spent.

    Returns the evaluation trajectory, plus the region log when
    ``return_log`` is true.  The trajectory holds exactly ``config.budget``
    points unless initialization is infeasible, which raises.  A k below 1
    or an unknown center strategy raises ValueError.
    """
    if config.center_strategy not in CENTER_STRATEGIES:
        raise ValueError(f"unknown center strategy {config.center_strategy!r}")
    if config.k < 1:
        raise ValueError(f"k must be >= 1, got {config.k}")
    dim = fn.dimension
    box = Box(np.asarray(fn.lower_bounds, float), np.asarray(fn.upper_bounds, float))
    params = CmaParams.defaults(dim)
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

    log = CascadeLog(dimension=dim)
    # the rows of each instance step that evaluated any, and the step's
    # (rows, instance, epoch, generation)
    xs_blocks: list[np.ndarray] = [np.empty((0, dim))]
    fs_blocks: list[np.ndarray] = [np.empty(0)]
    steps: list[tuple[int, int, int, int]] = []
    evals = 0
    generation = 0
    epoch = 0

    def spawn_epoch(epoch_index: int) -> list[CascadeInstance]:
        means = init_diverse_means(k, box, d_min, init_rng)
        log.epoch_starts.append((epoch_index, generation, [m.copy() for m in means]))
        fresh = []
        for i in range(k):
            state = init_cma(dim, means[i], params, int(seed_rng.integers(2**63)), box)
            fresh.append(CascadeInstance(index=i, state=state, center=means[i].copy()))
        return fresh

    def freeze(inst: CascadeInstance, cause: str) -> None:
        inst.stopped = True
        inst.stop_cause = cause
        if inst.best_point is not None:
            inst.center = inst.best_point.x.copy()

    instances = spawn_epoch(epoch)

    while evals < budget:
        if all(inst.stopped for inst in instances):
            # full restart: fresh instances from fresh diverse means
            epoch += 1
            instances = spawn_epoch(epoch)
        for pos, inst in enumerate(instances):
            if evals >= budget:
                break
            if not inst.stopped:
                # earlier centers hold still while this instance samples
                centers = np.array([p.center for p in instances[:pos]]).reshape(pos, dim)
                xs, rejections = ask_clear(
                    inst.state, box, min(lam, budget - evals), centers, d_min, 100 * lam
                )
                log.total_rejections += rejections
                if len(xs):
                    fs = np.asarray(fn.evaluate_many(xs), dtype=float)
                    xs_blocks.append(xs)
                    fs_blocks.append(fs)
                    steps.append((len(xs), inst.index, epoch, generation))
                    # the step's best, the earliest row among ties
                    b = int(np.argmin(fitness_keys(fs)))
                    best = EvaluatedPoint(
                        x=xs[b].copy(), f=float(fs[b]), eval_index=evals + b, instance_id=inst.index
                    )
                    if inst.best_point is None or fitness_key(best) < fitness_key(
                        inst.best_point
                    ):
                        inst.best_point = best
                evals += len(xs)
                # the budget ran out before lambda clear candidates were found
                out_of_budget = len(xs) < lam and evals >= budget
                if len(xs) >= mu:
                    tell(inst.state, xs, fs)
                    if inst.state.stop_reason is not None:
                        freeze(inst, inst.state.stop_reason)
                    else:
                        # the step's best is the population_best center
                        update_tabu_center(inst, [best], config.center_strategy)
                elif not out_of_budget:
                    # the rejection cap starved this instance: stop it for good
                    freeze(inst, STALLED)
                # with the budget gone and fewer than mu points, the partial
                # population is discarded and the run simply ends
            log.snapshots.append(
                RegionSnapshot(
                    generation=generation,
                    instance=inst.index,
                    center=inst.center.copy(),
                )
            )
        generation += 1

    rows, instance, epochs, generations = np.array(steps, dtype=np.int64).reshape(-1, 4).T
    trajectory = Trajectory(
        xs=np.concatenate(xs_blocks),
        fs=np.concatenate(fs_blocks),
        instance_id=np.repeat(instance, rows),
        epoch=np.repeat(epochs, rows),
        generation=np.repeat(generations, rows),
        function_id=getattr(fn, "function_id", ""),
        algorithm_id="ds",
        config=config.snapshot(),
    )
    if return_log:
        return trajectory, log
    return trajectory
