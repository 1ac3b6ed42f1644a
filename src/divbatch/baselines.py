"""Reference portfolio generators: random search and plain CMA-ES.

All generators spend exactly the requested evaluation budget and produce
the same trajectory for the same seed.  The budget and the seed are each
a Python or numpy int of at least 0, and ``run_cma_indep``'s k one of at
least 1; anything else, a bool included, raises ValueError naming the
argument (``trajectory._check_int``) before a point is drawn.  They draw
in the objective's search ``box`` and evaluate in blocks with its
``evaluate_many`` (an (n, D) array in, n values out); an objective needs
no more, and ``divbatch.objectives.ObjectiveFunction`` has both.
"""

from __future__ import annotations

import numpy as np

# ask_one stays a module attribute: perfbench's traced pass wraps it by name
from .cma import CmaParams, ask, ask_one, init_cma, tell  # noqa: F401
from .trajectory import Trajectory, _check_int

__all__ = ["run_cma_indep", "run_cma_single", "run_random"]


def run_random(fn, budget: int, seed: int = 0) -> Trajectory:
    """Evaluate ``budget`` points drawn uniformly from the box."""
    _check_int("budget", budget, 0)
    _check_int("seed", seed, 0)
    xs = fn.box.sample_uniform(np.random.default_rng(seed), budget)
    return Trajectory(
        xs=xs,
        fs=np.asarray(fn.evaluate_many(xs), dtype=float),
        instance_id=np.full(budget, -1, dtype=np.int64),
    )


def run_cma_single(fn, budget: int, seed: int = 0) -> Trajectory:
    """A single restarted CMA-ES run over the whole budget: ``run_cma_indep`` with k = 1."""
    return run_cma_indep(fn, budget, 1, seed)


def run_cma_indep(fn, budget: int, k: int, seed: int = 0) -> Trajectory:
    """k independent restarted CMA-ES runs splitting the budget evenly.

    Each run gets ``budget // k`` evaluations with the remainder assigned
    to the first; run i draws from ``np.random.default_rng([seed, i])``.
    A stopped run restarts; a last generation short of mu is not told.
    """
    _check_int("k", k, 1)
    _check_int("budget", budget, 0)
    _check_int("seed", seed, 0)
    box = fn.box
    params = CmaParams(box.dimension)
    shares = [budget // k] * k
    shares[0] += budget % k
    xs_blocks, fs_blocks = [np.empty((0, box.dimension))], [np.empty(0)]
    for i, share in enumerate(shares):
        rng = np.random.default_rng([seed, i])
        state, evals = None, 0
        while evals < share:
            if state is None or state.stop_reason is not None:
                # a full restart: a fresh uniform mean, then a seed
                state = init_cma(box.sample_uniform(rng), int(rng.integers(2**63)), box)
            # one generation: lambda candidates, fewer when the share ends
            xs = ask(state, min(params.lambda_, share - evals))
            fs = np.asarray(fn.evaluate_many(xs), dtype=float)
            xs_blocks.append(xs)
            fs_blocks.append(fs)
            evals += len(xs)
            if len(xs) >= params.mu:
                tell(state, xs, fs)
    return Trajectory(
        xs=np.concatenate(xs_blocks),
        fs=np.concatenate(fs_blocks),
        instance_id=np.repeat(np.arange(k, dtype=np.int64), shares),
    )
