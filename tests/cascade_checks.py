"""Shared replay helpers for cascade runs with region logs, a flat objective,
and one-candidate reference loops for the block sampler and its drivers."""

from __future__ import annotations

import warnings

import numpy as np

from divbatch import Box, CascadeInstance, CascadeLog, CmaParams, EvaluatedPoint, RegionSnapshot
from divbatch import Trajectory, init_cma, init_diverse_means, tell, update_tabu_center
from divbatch.boxes import distances
from divbatch.cascade import CENTER_STRATEGIES, STALLED
from divbatch.cma import AlreadyStopped
from divbatch.trajectory import fitness_key


class FlatFunction:
    """Constant objective; every CMA-ES instance stops after one tell."""

    def __init__(self, dimension=2):
        self.dimension = dimension
        self.lower_bounds = np.full(dimension, -5.0)
        self.upper_bounds = np.full(dimension, 5.0)
        self.function_id = "flat"
        self.eval_count = 0

    def evaluate(self, x):
        self.eval_count += 1
        return 7.0

    def evaluate_many(self, xs):
        self.eval_count += len(xs)
        return np.full(len(xs), 7.0)


def clearance_violations(trajectory, log, d_min):
    """Points of instance i that sit closer than d_min to the region center
    of an earlier instance, as that center stood in the point's generation.

    Returns a list of (eval_index, offending_instance) pairs; an empty list
    means the cascade constraint held for every evaluated point.
    """
    centers = {(s.generation, s.instance): s.center for s in log.snapshots}
    bad = []
    for p in trajectory.points:
        if p.instance_id <= 0:
            continue
        _, generation = log.point_generation[p.eval_index]
        for j in range(p.instance_id):
            center = centers[(generation, j)]
            if float(distances(p.x, center)) < d_min:
                bad.append((p.eval_index, j))
    return bad


def epoch_mean_violations(log, d_min):
    """Epochs whose initial means are not pairwise at least d_min apart."""
    bad = []
    for epoch, _, means in log.epoch_starts:
        for a in range(len(means)):
            for b in range(a + 1, len(means)):
                if float(distances(means[a], means[b])) < d_min:
                    bad.append(epoch)
    return bad


def reference_ask_one(state, box):
    """One candidate, drawn one normal vector at a time (the sampler before
    ``cma.ask`` drew blocks): up to 100 tries for an in-box draw, then clip."""
    if state.stop_reason is not None:
        raise AlreadyStopped(f"state already stopped ({state.stop_reason})")
    x = state.mean
    for _ in range(100):
        z = state.rng.standard_normal(state.params.dimension)
        x = state.mean + state.sigma * (state.eig_vectors @ (state.eig_scale * z))
        if box.contains(x):
            return x
    return box.clip(x)


def reference_run_ds(config, fn):
    """``run_ds`` as a one-candidate loop: ask, filter, evaluate per candidate.

    Returns (trajectory, log, instances), where ``instances`` lists every
    instance of every epoch in creation order.
    """
    if config.center_strategy not in CENTER_STRATEGIES:
        raise ValueError(f"unknown center strategy {config.center_strategy!r}")
    dim = fn.dimension
    box = Box(np.asarray(fn.lower_bounds, float), np.asarray(fn.upper_bounds, float))
    params = CmaParams.defaults(dim)
    lam, mu = params.lambda_, params.mu
    k, d_min, budget = config.k, config.d_min, config.budget
    if budget < k * lam:
        warnings.warn(f"budget {budget} is below one full round", stacklevel=2)
    init_ss, seed_ss = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    seed_rng = np.random.default_rng(seed_ss)
    log = CascadeLog(dimension=dim)
    points, created = [], []
    evals = generation = epoch = 0

    def spawn_epoch(epoch_index):
        means = init_diverse_means(k, box, d_min, init_rng)
        log.epoch_starts.append((epoch_index, generation, [m.copy() for m in means]))
        fresh = [
            CascadeInstance(
                index=i,
                state=init_cma(dim, means[i], params, int(seed_rng.integers(2**63)), box),
                center=means[i].copy(),
            )
            for i in range(k)
        ]
        created.extend(fresh)
        return fresh

    def freeze(inst, cause):
        inst.stopped = True
        inst.stop_cause = cause
        if inst.best_point is not None:
            inst.center = inst.best_point.x.copy()

    instances = spawn_epoch(epoch)
    while evals < budget:
        if all(inst.stopped for inst in instances):
            epoch += 1
            instances = spawn_epoch(epoch)
        for pos, inst in enumerate(instances):
            if evals >= budget:
                break
            if not inst.stopped:
                centers = np.array([p.center for p in instances[:pos]]).reshape(pos, dim)
                accepted, rejections, out_of_budget = [], 0, False
                while len(accepted) < lam:
                    if evals >= budget:
                        out_of_budget = True
                        break
                    if rejections >= 100 * lam:
                        break
                    x = reference_ask_one(inst.state, box)
                    if not len(centers) or (distances(centers, x) >= d_min).all():
                        point = EvaluatedPoint(
                            x=x, f=fn.evaluate(x), eval_index=evals, instance_id=inst.index
                        )
                        evals += 1
                        points.append(point)
                        accepted.append(point)
                        log.point_generation[point.eval_index] = (epoch, generation)
                        if inst.best_point is None or fitness_key(point) < fitness_key(
                            inst.best_point
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
                    freeze(inst, STALLED)
            log.snapshots.append(
                RegionSnapshot(generation=generation, instance=inst.index, center=inst.center.copy())
            )
        log.evals_after_generation[generation] = evals
        generation += 1
    trajectory = Trajectory(
        points=points,
        function_id=getattr(fn, "function_id", ""),
        algorithm_id="ds",
        config=config.snapshot(),
    )
    return trajectory, log, created


def reference_run_cma_single(fn, budget, seed=0):
    """``run_cma_single`` as a one-candidate loop.

    Returns (points, stop reasons of the restart legs, in order).
    """
    rng = np.random.default_rng([seed, 0])
    box = Box(np.asarray(fn.lower_bounds, float), np.asarray(fn.upper_bounds, float))
    params = CmaParams.defaults(fn.dimension)
    points, causes = [], []
    while len(points) < budget:
        mean = box.sample_uniform(rng)
        state = init_cma(fn.dimension, mean, params, int(rng.integers(2**63)), box)
        while len(points) < budget and state.stop_reason is None:
            population = []
            while len(population) < params.lambda_ and len(points) < budget:
                x = reference_ask_one(state, box)
                value = fn.evaluate(x)
                points.append(EvaluatedPoint(x=x, f=value, eval_index=len(points), instance_id=0))
                population.append((x, value))
            if len(population) >= params.mu:
                tell(state, population)
            else:
                break
        causes.append(state.stop_reason)
    return points, causes
