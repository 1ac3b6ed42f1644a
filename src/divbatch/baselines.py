"""Reference portfolio generators: random search and plain CMA-ES.

All generators spend exactly the requested evaluation budget and produce
the same trajectory for the same seed.  They evaluate in blocks, so the
objective must provide ``evaluate_many`` (an (n, D) array in, n values
out), as ``divbatch.objectives.ObjectiveFunction`` does.
"""

from __future__ import annotations

import numpy as np

from .boxes import Box
# ask_one stays a module attribute: perfbench's traced pass wraps it by name
from .cma import CmaParams, ask, ask_one, init_cma, tell  # noqa: F401
from .trajectory import EvaluatedPoint, Trajectory

__all__ = ["run_cma_indep", "run_cma_single", "run_random"]


def _box_of(fn) -> Box:
    return Box(np.asarray(fn.lower_bounds, float), np.asarray(fn.upper_bounds, float))


def run_random(fn, budget: int, seed: int = 0) -> Trajectory:
    """Evaluate ``budget`` points drawn uniformly from the box."""
    rng = np.random.default_rng(seed)
    xs = _box_of(fn).sample_uniform(rng, budget)
    fs = fn.evaluate_many(xs)
    points = [
        EvaluatedPoint(x=xs[i].copy(), f=float(fs[i]), eval_index=i, instance_id=-1)
        for i in range(budget)
    ]
    return Trajectory(
        points=points,
        function_id=getattr(fn, "function_id", ""),
        algorithm_id="random",
        config={"budget": budget, "seed": seed},
    )


def _instance_rng(seed: int, instance: int) -> np.random.Generator:
    return np.random.default_rng([seed, instance])


def _cma_stream(
    fn,
    budget: int,
    rng: np.random.Generator,
    instance_id: int,
    eval_offset: int,
) -> list[EvaluatedPoint]:
    """One CMA-ES run with full restarts, spending exactly ``budget`` evals.

    Each leg starts from a fresh uniform mean; a leg ends when a stopping
    criterion fires, and a final partial generation is told only if it
    reached mu candidates.
    """
    box = _box_of(fn)
    params = CmaParams.defaults(fn.dimension)
    points: list[EvaluatedPoint] = []
    while len(points) < budget:
        mean = box.sample_uniform(rng)
        state = init_cma(fn.dimension, mean, params, int(rng.integers(2**63)), box)
        while len(points) < budget and state.stop_reason is None:
            # one generation: lambda candidates, fewer when the budget ends
            xs = ask(state, box, min(params.lambda_, budget - len(points)))
            fs = fn.evaluate_many(xs).tolist()
            population = [(x.copy(), f) for x, f in zip(xs, fs)]
            start = eval_offset + len(points)
            points += [
                EvaluatedPoint(x=x, f=f, eval_index=start + i, instance_id=instance_id)
                for i, (x, f) in enumerate(population)
            ]
            if len(population) >= params.mu:
                tell(state, population)
            else:
                break
    return points


def run_cma_single(fn, budget: int, seed: int = 0) -> Trajectory:
    """A single restarted CMA-ES run over the whole budget."""
    points = _cma_stream(fn, budget, _instance_rng(seed, 0), instance_id=0, eval_offset=0)
    return Trajectory(
        points=points,
        function_id=getattr(fn, "function_id", ""),
        algorithm_id="cma",
        config={"budget": budget, "seed": seed},
    )


def run_cma_indep(fn, budget: int, k: int, seed: int = 0) -> Trajectory:
    """k independent restarted CMA-ES runs splitting the budget evenly.

    Each run gets ``budget // k`` evaluations with the remainder assigned
    to the first; with k = 1 this is exactly ``run_cma_single``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    shares = [budget // k] * k
    shares[0] += budget % k
    points: list[EvaluatedPoint] = []
    for i in range(k):
        points.extend(
            _cma_stream(fn, shares[i], _instance_rng(seed, i), instance_id=i, eval_offset=len(points))
        )
    return Trajectory(
        points=points,
        function_id=getattr(fn, "function_id", ""),
        algorithm_id="cma-indep",
        config={"budget": budget, "k": k, "seed": seed},
    )
