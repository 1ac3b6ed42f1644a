"""Shared brute-force oracles for batch selection tests."""

from __future__ import annotations

import itertools

import numpy as np

from divbatch.boxes import distances


def feasible(points, subset, d_min):
    return all(
        float(distances(points[a].x, points[b].x)) >= d_min
        for a, b in itertools.combinations(subset, 2)
    )


def compat_masks_reference(xs, d_min):
    """Compatibility bitmasks one row at a time with the distance kernel.

    Bit j of mask i is set iff j != i and ``distances(xs[j], xs[i]) >= d_min``.
    """
    masks = []
    for i, x in enumerate(xs):
        ok = distances(xs, x) >= d_min
        ok[i] = False
        packed = np.packbits(ok.astype(np.uint8), bitorder="little").tobytes()
        masks.append(int.from_bytes(packed, "little"))
    return masks


def enumerate_best(points, k, d_min):
    """Optimal forced-leader selection by exhaustive enumeration.

    ``points`` must be fitness-sorted with the leader at index 0.  Like the
    branch-and-bound selector, sizes k, k-1, ... are tried in turn and the
    first size with any feasible subset wins.  Returns (size, fitness_sum).
    """
    n = len(points)
    for size in range(min(k, n), 0, -1):
        best = None
        for rest in itertools.combinations(range(1, n), size - 1):
            subset = (0,) + rest
            if feasible(points, subset, d_min):
                total = sum(points[i].f for i in subset)
                if best is None or total < best:
                    best = total
        if best is not None:
            return size, best
    return 0, 0.0


def random_instance(seed):
    """A small seeded selection problem: (points, k, d_min)."""
    from divbatch import EvaluatedPoint

    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 31))
    dim = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    d_min = float(rng.uniform(1.0, 6.0))
    points = [
        EvaluatedPoint(
            x=rng.uniform(-5, 5, dim), f=float(rng.normal()), eval_index=i, instance_id=0
        )
        for i in range(n)
    ]
    return points, k, d_min
