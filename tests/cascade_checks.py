"""Shared replay helpers for cascade runs with region logs, a flat and a
tied objective, one-draw and one-candidate reference loops for the
initial means, the block sampler and its drivers, the sampler's stream
position, and the reference generation update ``reference_tell``."""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from divbatch import Box, CmaParams, cma, init_cma, tell
from divbatch.boxes import distances
from divbatch.cascade import CENTER_STRATEGIES, STALLED, InfeasibleInitialization, _dispersed_means
from divbatch.cma import (
    _MAX_BLOCK_ROWS,
    _MAX_CONDITION,
    STOP_DEGENERATE,
    STOP_MAXITER,
    STOP_TOLFUN,
    STOP_TOLFUNHIST,
    STOP_TOLSTAGNATION,
    STOP_TOLX,
    AlreadyStopped,
    CmaState,
    InsufficientPopulation,
)
from trajectory_checks import Point, point_key, trajectory_of


class FlatFunction:
    """Constant objective; every CMA-ES instance stops after one tell."""

    def __init__(self, dimension=2):
        self.box = Box.cube(dimension)
        self.eval_count = 0

    def evaluate(self, x):
        self.eval_count += 1
        return 7.0

    def evaluate_many(self, xs):
        self.eval_count += len(xs)
        return np.full(len(xs), 7.0)


class TiedFunction:
    """Sphere rounded down to whole numbers and NaN where x0 > 2: a
    population often ties on its best value, so the eval_index tie-break
    of the ``population_best`` center matters."""

    def __init__(self, dimension=2):
        self.box = Box.cube(dimension)
        self.eval_count = 0

    def evaluate(self, x):
        return float(self.evaluate_many(np.asarray(x)[None])[0])

    def evaluate_many(self, xs):
        self.eval_count += len(xs)
        return np.where(xs[:, 0] > 2.0, np.nan, np.floor(np.add.reduce(xs * xs, axis=1)))


def row_generations(log):
    """The generation of every trajectory row of a ``run_ds`` run, from its log."""
    return np.repeat(log.generation, log.evaluations)


def row_epochs(log):
    """The restart epoch of every trajectory row of a ``run_ds`` run, from its log."""
    return np.searchsorted(log.epoch_starts, row_generations(log), side="right") - 1


def clearance_violations(trajectory, log, d_min):
    """Points of instance i that sit closer than d_min to the region center
    of an earlier instance, as that center stood in the point's generation.

    Returns a list of (eval_index, offending_instance) pairs; an empty list
    means the cascade constraint held for every evaluated point.
    """
    rows = zip(log.generation.tolist(), log.instance.tolist(), log.centers)
    centers = {(generation, instance): center for generation, instance, center in rows}
    bad = []
    rows = zip(trajectory.xs, trajectory.instance_id.tolist(), row_generations(log).tolist())
    for eval_index, (x, instance, generation) in enumerate(rows):
        for j in range(instance):
            if float(distances(x, centers[(generation, j)])) < d_min:
                bad.append((eval_index, j))
    return bad


def epoch_mean_violations(log, d_min):
    """Epochs whose initial means are not pairwise at least d_min apart."""
    bad = []
    for epoch, means in enumerate(log.epoch_means):
        for a in range(len(means)):
            for b in range(a + 1, len(means)):
                if float(distances(means[a], means[b])) < d_min:
                    bad.append(epoch)
    return bad


def reference_init_diverse_means(k, box, d_min, rng, cap=100_000):
    """``cascade.init_diverse_means`` one draw at a time (the initializer
    before it tested blocks): each mean is the first uniform draw at least
    ``d_min`` from the means before it, and a mean that takes ``cap``
    draws hands the k means to ``_dispersed_means``.

    Returns the means as a list of k arrays.
    """
    if k >= 2 and d_min > box.diameter:
        raise InfeasibleInitialization(
            f"d_min={d_min} exceeds the box diameter {box.diameter:.6g}"
        )
    means = []
    for _ in range(k):
        accepted = np.array(means).reshape(len(means), box.dimension)
        for _ in range(cap):
            x = box.sample_uniform(rng)
            if (distances(accepted, x) >= d_min).all():
                means.append(x)
                break
        else:
            return list(_dispersed_means(k, box, d_min, rng))
    return means


def reference_ask_one(state):
    """One candidate, drawn one normal vector at a time (the sampler before
    ``cma.ask`` drew blocks): up to 100 tries for an in-box draw, then clip."""
    if state.stop_reason is not None:
        raise AlreadyStopped(f"state already stopped ({state.stop_reason})")
    x = state.mean
    for _ in range(100):
        z = state.rng.standard_normal(state.params.dimension)
        x = state.mean + state.sigma * (state.eig_vectors @ (state.eig_scale * z))
        if state.box.contains(x):
            return x
    return state.box.clip(x)


def next_normals(state, rows=_MAX_BLOCK_ROWS + 1):
    """The next ``rows`` normal vectors the state's sampler will use: its
    spare rows, then its rng's next ones, drawn from a copy of the rng.

    A state driven only by the reference loops keeps no spare, so this is
    its rng's next rows.  The default reaches past any spare into the rng.
    """
    spare = state.z_spare
    fresh = copy.deepcopy(state.rng).standard_normal((rows - len(spare), state.params.dimension))
    return np.concatenate([spare, fresh])


def same_stream_position(state, *others):
    """Whether every state in ``others`` will use the same next normals as
    ``state``: the stream-position check that stands in for comparing rng
    states, since a sampler's rng runs ahead of a one-candidate loop's by
    its spare rows."""
    ahead = next_normals(state).tobytes()
    return all(next_normals(other).tobytes() == ahead for other in others)


def reference_ask_clear(state, room, centers, d_min, cap):
    """``cma.ask_clear`` one candidate at a time: ``reference_ask_one``, then
    the closed clearance test against every center, until ``room``
    candidates are clear or ``cap`` are not.

    Returns the clear candidates as a (n, D) array and the number rejected.
    """
    kept, rejected = [], 0
    while len(kept) < room and rejected < cap:
        x = reference_ask_one(state)
        if (distances(centers, x) >= d_min).all():
            kept.append(x)
        else:
            rejected += 1
    return np.array(kept).reshape(len(kept), state.params.dimension), rejected


@dataclass
class ReferenceInstance:
    """One instance of ``reference_run_ds``: its tabu center and best point."""

    index: int
    state: CmaState
    center: np.ndarray
    best: Point | None = None
    stop_cause: str | None = None


def reference_run_ds(config, fn):
    """``run_ds`` as a one-candidate loop: ask, filter, evaluate per candidate.

    Each center is chosen from the generation's whole accepted population:
    its ``point_key`` minimum (population_best), the instance's best
    point (best_so_far) or the CMA-ES mean (distribution_mean).

    Returns (trajectory, log, instances): ``log`` holds the columns of a
    ``CascadeLog`` plus the epoch and generation stamped on each point as
    it was evaluated (``point_epoch``, ``point_generation``), and
    ``instances`` lists every instance of every epoch in creation order.
    """
    if config.center_strategy not in CENTER_STRATEGIES:
        raise ValueError(f"unknown center strategy {config.center_strategy!r}")
    box = fn.box
    dim = box.dimension
    params = CmaParams(dim)
    lam, mu = params.lambda_, params.mu
    k, d_min, budget = config.k, config.d_min, config.budget
    if budget < k * lam:
        warnings.warn(f"budget {budget} is below one full round", stacklevel=2)
    init_ss, seed_ss = np.random.SeedSequence(config.seed).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    seed_rng = np.random.default_rng(seed_ss)
    points, stamps, created = [], [], []
    log_rows, epoch_starts, epoch_means = [], [], []
    total_rejections = evals = generation = epoch = 0

    def spawn_epoch():
        means = reference_init_diverse_means(k, box, d_min, init_rng)
        epoch_starts.append(generation)
        epoch_means.append([m.copy() for m in means])
        fresh = [
            ReferenceInstance(
                index=i,
                state=init_cma(means[i], int(seed_rng.integers(2**63)), box),
                center=means[i].copy(),
            )
            for i in range(k)
        ]
        created.extend(fresh)
        return fresh

    def freeze(inst, cause):
        inst.stop_cause = cause
        if inst.best is not None:
            inst.center = inst.best.x.copy()

    instances = spawn_epoch()
    while evals < budget:
        if all(inst.stop_cause is not None for inst in instances):
            epoch += 1
            instances = spawn_epoch()
        for pos, inst in enumerate(instances):
            if evals >= budget:
                break
            accepted = []
            if inst.stop_cause is None:
                centers = np.array([p.center for p in instances[:pos]]).reshape(pos, dim)
                rejections, out_of_budget = 0, False
                while len(accepted) < lam:
                    if evals >= budget:
                        out_of_budget = True
                        break
                    if rejections >= 100 * lam:
                        break
                    x = reference_ask_one(inst.state)
                    if not len(centers) or (distances(centers, x) >= d_min).all():
                        point = Point(
                            x=x, f=fn.evaluate(x), eval_index=evals, instance_id=inst.index
                        )
                        evals += 1
                        points.append(point)
                        accepted.append(point)
                        stamps.append((epoch, generation))
                        if inst.best is None or point_key(point) < point_key(inst.best):
                            inst.best = point
                    else:
                        rejections += 1
                total_rejections += rejections
                if len(accepted) >= mu:
                    xs = np.array([p.x for p in accepted])
                    tell(inst.state, xs, np.array([p.f for p in accepted]))
                    if inst.state.stop_reason is not None:
                        freeze(inst, inst.state.stop_reason)
                    elif config.center_strategy == "population_best":
                        inst.center = min(accepted, key=point_key).x.copy()
                    elif config.center_strategy == "best_so_far":
                        inst.center = inst.best.x.copy()
                    else:
                        inst.center = np.array(inst.state.mean, copy=True)
                elif not out_of_budget:
                    freeze(inst, STALLED)
            log_rows.append((generation, inst.index, len(accepted), inst.center.copy()))
        generation += 1
    epochs, generations = np.array(stamps, dtype=np.int64).reshape(-1, 2).T
    log = SimpleNamespace(
        generation=np.array([g for g, _, _, _ in log_rows], dtype=np.int64),
        instance=np.array([i for _, i, _, _ in log_rows], dtype=np.int64),
        evaluations=np.array([n for _, _, n, _ in log_rows], dtype=np.int64),
        centers=np.array([c for _, _, _, c in log_rows]).reshape(len(log_rows), dim),
        epoch_starts=np.array(epoch_starts, dtype=np.int64),
        epoch_means=np.array(epoch_means),
        total_rejections=total_rejections,
        point_epoch=epochs,
        point_generation=generations,
    )
    return trajectory_of(points), log, created


def reference_run_cma_single(fn, budget, seed=0):
    """``run_cma_single`` as a one-candidate loop.

    Returns (points, stop reasons of the restart legs, in order).
    """
    rng = np.random.default_rng([seed, 0])
    box = fn.box
    params = CmaParams(box.dimension)
    points, causes = [], []
    while len(points) < budget:
        mean = box.sample_uniform(rng)
        state = init_cma(mean, int(rng.integers(2**63)), box)
        while len(points) < budget and state.stop_reason is None:
            population = []
            while len(population) < params.lambda_ and len(points) < budget:
                x = reference_ask_one(state)
                value = fn.evaluate(x)
                points.append(Point(x=x, f=value, eval_index=len(points), instance_id=0))
                population.append((x, value))
            if len(population) >= params.mu:
                xs, fs = zip(*population)
                tell(state, np.array(xs), np.array(fs))
            else:
                break
        causes.append(state.stop_reason)
    return points, causes


# ``cma.tell``, ``cma._refresh_eigensystem`` and ``cma.should_stop`` before
# the generation step was cut to its arithmetic, verbatim but for the names:
# the oracle for bit-identical updates.  Their stop statistics take NaN as
# it comes (``np.median`` and the range give NaN, and ``max``/``min`` over
# the history skip a NaN unless it comes first), so they are compared with
# ``tell`` only on NaN-free fitness, or on fitness with NaN put to +inf and
# rows in ``fitness_keys`` order.  One rule is newer than the rest: a median
# between -inf and +inf ranks as +inf, as in ``tell``.  The stop tolerances
# are read from ``divbatch.cma`` at each call, so a test that patches one
# patches both sides.


def reference_tell(state: CmaState, xs: np.ndarray, fs: np.ndarray) -> None:
    """Advance the distribution one generation from evaluated candidates.

    ``xs`` is an (n, D) array of candidates and ``fs`` their n fitness
    values, lower better.  Any n in [mu, lambda] is accepted; the mu best
    are recombined with the standard weights.
    """
    params = state.params
    xs, fs = np.asarray(xs, dtype=float), np.asarray(fs, dtype=float)
    n = len(fs)
    if n < params.mu:
        raise InsufficientPopulation(f"need at least mu={params.mu} candidates, got {n}")
    if n > params.lambda_:
        raise ValueError(f"population larger than lambda={params.lambda_}: {n}")
    if xs.shape != (n, params.dimension):
        raise ValueError(f"xs must have shape ({n}, {params.dimension}), got {xs.shape}")

    order = np.argsort(fs, kind="stable")
    parents = xs[order[: params.mu]]
    w = params.weights

    mean_old = state.mean
    sigma = state.sigma
    mean_new = w @ parents
    y_w = (mean_new - mean_old) / sigma

    c_s, d_s = params.c_sigma, params.d_sigma
    c_c, c_1, c_mu = params.c_c, params.c_1, params.c_mu
    mu_eff = params.mu_eff
    dim = params.dimension

    # CSA path in the whitened coordinate system
    cov_inv_half_yw = state.eig_vectors @ ((state.eig_vectors.T @ y_w) / state.eig_scale)
    p_sigma = (1.0 - c_s) * state.p_sigma + math.sqrt(c_s * (2.0 - c_s) * mu_eff) * cov_inv_half_yw
    norm_ps = float(np.linalg.norm(p_sigma))
    # the expected length of a D-dimensional standard normal vector
    chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim * dim))
    expected = math.sqrt(1.0 - (1.0 - c_s) ** (2 * (state.iteration + 1)))
    h_sigma = 1.0 if norm_ps / expected / chi_n < 1.4 + 2.0 / (dim + 1.0) else 0.0

    p_c = (1.0 - c_c) * state.p_c + h_sigma * math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

    ys = (parents - mean_old) / sigma
    rank_mu = ys.T @ (w[:, None] * ys)
    delta_h = (1.0 - h_sigma) * c_c * (2.0 - c_c)
    cov = (
        (1.0 - c_1 - c_mu) * state.cov
        + c_1 * (np.outer(p_c, p_c) + delta_h * state.cov)
        + c_mu * rank_mu
    )
    cov = (cov + cov.T) / 2.0

    arg = (c_s / d_s) * (norm_ps / chi_n - 1.0)
    sigma = sigma * math.exp(min(arg, 700.0))

    state.mean = mean_new
    state.sigma = sigma
    state.cov = cov
    state.p_sigma = p_sigma
    state.p_c = p_c
    state.iteration += 1

    best = float(fs[order[0]])
    med = float(np.median(fs))
    if math.isnan(med):
        med = math.inf
    state.last_range = float(fs.max() - fs.min())
    state.hist_best.append(best)
    state.stagn_best.append(best)
    state.stagn_median.append(med)

    reference_refresh_eigensystem(state)
    state.stop_reason = reference_should_stop(state)


def reference_refresh_eigensystem(state: CmaState) -> None:
    if not (np.all(np.isfinite(state.cov)) and math.isfinite(state.sigma) and state.sigma > 0):
        state.degenerate = True
        return
    try:
        vals, vecs = np.linalg.eigh(state.cov)
    except np.linalg.LinAlgError:
        state.degenerate = True
        return
    if not np.all(np.isfinite(vals)) or vals[0] <= 0.0 or vals[-1] / vals[0] > _MAX_CONDITION:
        state.degenerate = True
        return
    state.eig_vectors = vecs
    state.eig_scale = np.sqrt(vals)


def reference_should_stop(state: CmaState) -> str | None:
    """First triggered stopping criterion, or None while the run may continue."""
    params = state.params

    scales = state.sigma * np.sqrt(np.diag(state.cov))
    if np.all(scales < cma.TOL_X) and np.all(state.sigma * np.abs(state.p_c) < cma.TOL_X):
        return STOP_TOLX

    if state.last_range is not None and state.hist_best:
        span = max(state.hist_best) - min(state.hist_best)
        if state.last_range < cma.TOL_FUN and span < cma.TOL_FUN:
            return STOP_TOLFUN

    if len(state.hist_best) >= 10:
        span = max(state.hist_best) - min(state.hist_best)
        if span < cma.TOL_FUN_HIST:
            return STOP_TOLFUNHIST

    window = cma.TOL_STAGNATION
    if len(state.stagn_best) >= 2 * window:
        best = list(state.stagn_best)
        med = list(state.stagn_median)
        if (
            np.median(best[-window:]) >= np.median(best[:window])
            and np.median(med[-window:]) >= np.median(med[:window])
        ):
            return STOP_TOLSTAGNATION

    if state.iteration >= params.max_iter:
        return STOP_MAXITER

    if state.degenerate:
        return STOP_DEGENERATE

    return None
