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
from .trajectory import Trajectory

__all__ = ["run_cma_indep", "run_cma_single", "run_random"]


def _box_of(fn) -> Box:
    return Box(np.asarray(fn.lower_bounds, float), np.asarray(fn.upper_bounds, float))


def run_random(fn, budget: int, seed: int = 0) -> Trajectory:
    """Evaluate ``budget`` points drawn uniformly from the box."""
    rng = np.random.default_rng(seed)
    xs = _box_of(fn).sample_uniform(rng, budget)
    return Trajectory(
        xs=xs,
        fs=np.asarray(fn.evaluate_many(xs), dtype=float),
        instance_id=np.full(budget, -1, dtype=np.int64),
    )


def _instance_rng(seed: int, instance: int) -> np.random.Generator:
    return np.random.default_rng([seed, instance])


def _cma_stream(fn, budget: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One CMA-ES run with full restarts, spending exactly ``budget`` evals.

    Returns the evaluated (xs, fs) in evaluation order.  Each leg starts
    from a fresh uniform mean; a leg ends when a stopping criterion fires,
    and a final partial generation is told only if it reached mu
    candidates.
    """
    box = _box_of(fn)
    params = CmaParams.defaults(fn.dimension)
    xs_blocks, fs_blocks = [np.empty((0, fn.dimension))], [np.empty(0)]
    evals = 0
    while evals < budget:
        mean = box.sample_uniform(rng)
        state = init_cma(fn.dimension, mean, params, int(rng.integers(2**63)), box)
        while evals < budget and state.stop_reason is None:
            # one generation: lambda candidates, fewer when the budget ends
            xs = ask(state, box, min(params.lambda_, budget - evals))
            fs = np.asarray(fn.evaluate_many(xs), dtype=float)
            xs_blocks.append(xs)
            fs_blocks.append(fs)
            evals += len(xs)
            if len(xs) >= params.mu:
                tell(state, xs, fs)
            else:
                break
    return np.concatenate(xs_blocks), np.concatenate(fs_blocks)


def run_cma_single(fn, budget: int, seed: int = 0) -> Trajectory:
    """A single restarted CMA-ES run over the whole budget."""
    xs, fs = _cma_stream(fn, budget, _instance_rng(seed, 0))
    return Trajectory(xs=xs, fs=fs, instance_id=np.zeros(budget, dtype=np.int64))


def run_cma_indep(fn, budget: int, k: int, seed: int = 0) -> Trajectory:
    """k independent restarted CMA-ES runs splitting the budget evenly.

    Each run gets ``budget // k`` evaluations with the remainder assigned
    to the first; with k = 1 this is exactly ``run_cma_single``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    shares = [budget // k] * k
    shares[0] += budget % k
    streams = [_cma_stream(fn, shares[i], _instance_rng(seed, i)) for i in range(k)]
    return Trajectory(
        xs=np.concatenate([xs for xs, _ in streams]),
        fs=np.concatenate([fs for _, fs in streams]),
        instance_id=np.repeat(np.arange(k, dtype=np.int64), shares),
    )
