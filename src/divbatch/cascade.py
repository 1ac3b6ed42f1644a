"""Cascading CMA-ES diversity search.

Runs k CMA-ES instances in synchronized rounds.  Each instance owns a tabu
region, the ball of radius ``d_min`` around its center, and the cascade
orders the instances: instance i discards any candidate closer than
``d_min`` to the center of an instance earlier in the cascade, so instance
0 searches unconstrained while later instances are pushed away from the
territory already claimed.  Rejected candidates are never evaluated and
cost no budget; the run always spends exactly the requested number of
objective evaluations.

Each instance takes one step per generation: it asks its CMA-ES state for
a block of candidates, masks the block against the box and the earlier
centers, evaluates the accepted rows with one ``fn.evaluate_many`` call
and tells the state.  The objective must therefore provide
``evaluate_many`` (an (n, D) array in, n values out).  Blocks are sized
from the acceptance seen so far, and draws past the step's stop are
handed back to the rng, so every run is bit-identical to filtering one
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
from .cma import CmaParams, CmaState, ask, ask_one, init_cma, tell  # noqa: F401
from .trajectory import EvaluatedPoint, Trajectory, fitness_key

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
    """Generation-stamped record of region movement, for replay and plots."""

    dimension: int
    snapshots: list[RegionSnapshot] = field(default_factory=list)
    # eval_index -> (epoch, generation)
    point_generation: dict[int, tuple[int, int]] = field(default_factory=dict)
    # (epoch, first generation, list of initial means)
    epoch_starts: list[tuple[int, int, list[np.ndarray]]] = field(default_factory=list)
    evals_after_generation: dict[int, int] = field(default_factory=dict)
    total_rejections: int = 0

    def write(self, path: str | Path) -> None:
        coords = ",".join(f"x{i}" for i in range(self.dimension))
        lines = [f"generation,instance,{coords}"]
        for snap in self.snapshots:
            center = ",".join(repr(float(v)) for v in snap.center)
            lines.append(f"{snap.generation},{snap.instance},{center}")
        Path(path).write_text("\n".join(lines) + "\n")


def _clear_rows(xs: np.ndarray, centers: np.ndarray, d_min: float) -> np.ndarray:
    """One bool per row of ``xs``: at least ``d_min`` from every row of ``centers``.

    A point exactly ``d_min`` away passes; with no centers (instance 0)
    every point does.
    """
    return (distances(xs[:, None, :], centers) >= d_min).all(axis=1)


def _clear_of(x: np.ndarray, centers: np.ndarray, d_min: float) -> bool:
    """True iff ``x`` is at least ``d_min`` from every row of ``centers``.

    The one-point form of ``_clear_rows``, with the same bits.
    """
    return bool(_clear_rows(x[None, :], centers, d_min)[0])


def _draw_clear(
    state: CmaState, box: Box, centers: np.ndarray, d_min: float, room: int, cap: int
) -> tuple[np.ndarray, int]:
    """Sample until ``room`` candidates are clear of ``centers`` or ``cap`` are not.

    Returns the clear candidates in draw order and the number rejected.
    Candidates are asked for in blocks sized from the acceptance seen so
    far; a block that runs past the stop is handed back by restoring the
    rng and asking again for the candidates used, so the rng ends where a
    one-candidate loop would leave it.
    """
    rng = state.rng
    kept: list[np.ndarray] = []
    n_kept = rejected = 0
    while n_kept < room and rejected < cap:
        need, allowed = room - n_kept, cap - rejected
        # as many as the acceptance so far suggests; before any acceptance,
        # one per candidate needed (first block), then twice the rejections
        n = -(-need * (n_kept + rejected) // n_kept) if n_kept else max(need, 2 * rejected)
        # the stop comes within need + allowed - 1 candidates
        n = min(n, need + allowed - 1)
        saved = rng.bit_generator.state
        xs = ask(state, box, n)
        clear = _clear_rows(xs, centers, d_min)
        # the candidate after which a one-candidate loop would stop
        hits, misses = clear.nonzero()[0], (~clear).nonzero()[0]
        used = n
        if len(hits) >= need:
            used = hits[need - 1] + 1
        if len(misses) >= allowed:
            used = min(used, misses[allowed - 1] + 1)
        if used < n:
            rng.bit_generator.state = saved
            ask(state, box, used)
            xs, clear = xs[:used], clear[:used]
        kept.append(xs[clear])
        n_kept += len(kept[-1])
        rejected += len(xs) - len(kept[-1])
    return np.concatenate(kept), rejected


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
    points unless initialization is infeasible, which raises.
    """
    if config.center_strategy not in CENTER_STRATEGIES:
        raise ValueError(f"unknown center strategy {config.center_strategy!r}")
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
    points: list[EvaluatedPoint] = []
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
                xs, rejections = _draw_clear(
                    inst.state, box, centers, d_min, min(lam, budget - evals), 100 * lam
                )
                log.total_rejections += rejections
                fs = fn.evaluate_many(xs).tolist() if len(xs) else []
                accepted = [
                    EvaluatedPoint(x=x.copy(), f=f, eval_index=evals + i, instance_id=inst.index)
                    for i, (x, f) in enumerate(zip(xs, fs))
                ]
                evals += len(accepted)
                points.extend(accepted)
                for point in accepted:
                    log.point_generation[point.eval_index] = (epoch, generation)
                if accepted:
                    best = min(accepted, key=fitness_key)
                    if inst.best_point is None or fitness_key(best) < fitness_key(
                        inst.best_point
                    ):
                        inst.best_point = best
                # the budget ran out before lambda clear candidates were found
                out_of_budget = len(accepted) < lam and evals >= budget
                if len(accepted) >= mu:
                    tell(inst.state, [(p.x, p.f) for p in accepted])
                    if inst.state.stop_reason is not None:
                        freeze(inst, inst.state.stop_reason)
                    else:
                        update_tabu_center(inst, accepted, config.center_strategy)
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
        log.evals_after_generation[generation] = evals
        generation += 1

    trajectory = Trajectory(
        points=points,
        function_id=getattr(fn, "function_id", ""),
        algorithm_id="ds",
        config=config.snapshot(),
    )
    if return_log:
        return trajectory, log
    return trajectory
