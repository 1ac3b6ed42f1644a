"""Cascading CMA-ES diversity search.

Runs k CMA-ES instances in synchronized rounds.  Each instance owns a tabu
region, a ball of radius ``d_min`` around its current best point, and the
cascade orders the instances: instance i discards any candidate that falls
inside the region of an instance earlier in the cascade, so instance 0
searches unconstrained while later instances are pushed away from the
territory already claimed.  Rejected candidates are never evaluated and
cost no budget; the run always spends exactly the requested number of
objective evaluations.

When an instance meets a stopping criterion its region freezes at the best
point it evaluated and keeps repelling the others.  When every instance
has stopped with budget left, the cascade restarts from a fresh set of
mutually distant means; the old regions are deactivated.

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
from .cma import CmaParams, ask_one, init_cma, tell
from .trajectory import EvaluatedPoint, Trajectory

__all__ = [
    "CENTER_STRATEGIES",
    "CascadeInstance",
    "CascadeLog",
    "DsConfig",
    "InfeasibleInitialization",
    "NoPopulation",
    "RegionSnapshot",
    "TabuRegion",
    "init_diverse_means",
    "is_valid_candidate",
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
class TabuRegion:
    """Ball of radius ``radius`` around ``center``, owned by one instance."""

    center: np.ndarray
    radius: float
    owner: int
    active: bool = True


@dataclass
class DsConfig:
    """Configuration for one diversity-search run.

    ``budget`` is the total number of objective evaluations; candidates
    rejected by the cascade do not count against it.  When
    ``candidate_rejection_cap`` is None it defaults to 100 * lambda draws
    per instance per generation.
    """

    k: int
    d_min: float
    budget: int
    center_strategy: str = CENTER_POPULATION_BEST
    reorder_on_convergence: bool = False
    init_rejection_cap: int = 100_000
    candidate_rejection_cap: int | None = None
    seed: int = 0

    def snapshot(self) -> dict:
        return {
            "k": self.k,
            "d_min": self.d_min,
            "budget": self.budget,
            "center_strategy": self.center_strategy,
            "reorder_on_convergence": self.reorder_on_convergence,
            "init_rejection_cap": self.init_rejection_cap,
            "candidate_rejection_cap": self.candidate_rejection_cap,
            "seed": self.seed,
        }


@dataclass
class CascadeInstance:
    """One CMA-ES instance plus its region and bookkeeping."""

    index: int
    state: object
    region: TabuRegion
    best_point: EvaluatedPoint | None = None
    stopped: bool = False
    stop_cause: str | None = None
    stopped_at: int | None = None


@dataclass
class RegionSnapshot:
    generation: int
    epoch: int
    instance: int
    center: np.ndarray
    active: bool


@dataclass
class CascadeLog:
    """Generation-stamped record of region movement, for replay and plots."""

    budget: int
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
        lines = [f"generation,instance,{coords},active"]
        for snap in self.snapshots:
            center = ",".join(repr(float(v)) for v in snap.center)
            lines.append(f"{snap.generation},{snap.instance},{center},{int(snap.active)}")
        Path(path).write_text("\n".join(lines) + "\n")

    def center_at(self, generation: int, instance: int) -> RegionSnapshot | None:
        """Latest snapshot of an instance's region at or before a generation."""
        found = None
        for snap in self.snapshots:
            if snap.generation > generation:
                break
            if snap.instance == instance:
                found = snap
        return found


def _tabu_arrays(regions: list[TabuRegion], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers, as an (m, dim) array, and radii of the active regions."""
    active = [r for r in regions if r.active]
    centers = np.array([r.center for r in active], dtype=float).reshape(len(active), dim)
    return centers, np.array([r.radius for r in active], dtype=float)


def _clear_of(x: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> bool:
    """True iff ``x`` is at least ``radii[j]`` from every ``centers[j]``."""
    if not len(radii):
        return True
    return bool((distances(centers, x) >= radii).all())


def is_valid_candidate(x: np.ndarray, instance_index: int, regions: list[TabuRegion]) -> bool:
    """True iff ``x`` avoids every active region owned by an earlier instance.

    Boundary points count as valid: distance exactly ``radius`` passes.
    Instance 0 is never constrained.
    """
    earlier = [r for r in regions if r.owner < instance_index]
    return _clear_of(x, *_tabu_arrays(earlier, len(x)))


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
) -> TabuRegion:
    """Move the instance's region center according to the chosen strategy.

    population_best uses the best point of the current generation (ties by
    lowest eval_index), best_so_far the best point the instance has ever
    evaluated, distribution_mean the current CMA-ES mean.
    """
    if strategy == CENTER_POPULATION_BEST:
        if not population:
            raise NoPopulation("population_best needs a non-empty population")
        best = min(population, key=lambda p: (p.f, p.eval_index))
        instance.region.center = best.x.copy()
    elif strategy == CENTER_BEST_SO_FAR:
        best = instance.best_point
        if best is None:
            if not population:
                raise NoPopulation("instance has not evaluated any point yet")
            best = min(population, key=lambda p: (p.f, p.eval_index))
        instance.region.center = best.x.copy()
    elif strategy == CENTER_DISTRIBUTION_MEAN:
        instance.region.center = np.array(instance.state.mean, copy=True)
    else:
        raise ValueError(f"unknown center strategy {strategy!r}")
    return instance.region


def _cascade_order(instances: list[CascadeInstance], reorder: bool) -> list[CascadeInstance]:
    if not reorder:
        return list(instances)
    stopped = sorted(
        (inst for inst in instances if inst.stopped), key=lambda inst: inst.stopped_at
    )
    running = [inst for inst in instances if not inst.stopped]
    return stopped + running


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
    cand_cap = config.candidate_rejection_cap
    if cand_cap is None:
        cand_cap = 100 * lam
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

    log = CascadeLog(budget=budget, dimension=dim)
    points: list[EvaluatedPoint] = []
    evals = 0
    generation = 0
    epoch = 0
    stop_counter = 0

    def spawn_epoch(epoch_index: int) -> list[CascadeInstance]:
        means = init_diverse_means(k, box, d_min, init_rng, config.init_rejection_cap)
        log.epoch_starts.append((epoch_index, generation, [m.copy() for m in means]))
        fresh = []
        for i in range(k):
            state = init_cma(dim, means[i], params, int(seed_rng.integers(2**63)), box)
            region = TabuRegion(center=means[i].copy(), radius=d_min, owner=i)
            fresh.append(CascadeInstance(index=i, state=state, region=region))
        return fresh

    def freeze(inst: CascadeInstance, cause: str) -> None:
        nonlocal stop_counter
        inst.stopped = True
        inst.stop_cause = cause
        inst.stopped_at = stop_counter
        stop_counter += 1
        if inst.best_point is not None:
            inst.region.center = inst.best_point.x.copy()

    instances = spawn_epoch(epoch)

    while evals < budget:
        if all(inst.stopped for inst in instances):
            # full restart: retire the old regions, draw fresh diverse means
            for inst in instances:
                inst.region.active = False
            epoch += 1
            instances = spawn_epoch(epoch)
        order = _cascade_order(instances, config.reorder_on_convergence)
        for pos, inst in enumerate(order):
            if evals >= budget:
                break
            if not inst.stopped:
                # earlier regions hold still while this instance samples
                centers, radii = _tabu_arrays([order[q].region for q in range(pos)], dim)
                accepted: list[EvaluatedPoint] = []
                rejections = 0
                out_of_budget = False
                while len(accepted) < lam:
                    if evals >= budget:
                        out_of_budget = True
                        break
                    if rejections >= cand_cap:
                        break
                    x = ask_one(inst.state, box)
                    if _clear_of(x, centers, radii):
                        value = fn.evaluate(x)
                        point = EvaluatedPoint(
                            x=x, f=value, eval_index=evals, instance_id=inst.index
                        )
                        evals += 1
                        points.append(point)
                        accepted.append(point)
                        log.point_generation[point.eval_index] = (epoch, generation)
                        if inst.best_point is None or (point.f, point.eval_index) < (
                            inst.best_point.f,
                            inst.best_point.eval_index,
                        ):
                            inst.best_point = point
                    else:
                        rejections += 1
                log.total_rejections += rejections
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
                    epoch=epoch,
                    instance=inst.index,
                    center=inst.region.center.copy(),
                    active=inst.region.active,
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
