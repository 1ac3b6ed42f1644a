"""Shared replay helpers for cascade runs with region logs, and a flat objective."""

from __future__ import annotations

import numpy as np


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
            if float(np.linalg.norm(p.x - center)) < d_min:
                bad.append((p.eval_index, j))
    return bad


def epoch_mean_violations(log, d_min):
    """Epochs whose initial means are not pairwise at least d_min apart."""
    bad = []
    for epoch, _, means in log.epoch_starts:
        for a in range(len(means)):
            for b in range(a + 1, len(means)):
                if float(np.linalg.norm(means[a] - means[b])) < d_min:
                    bad.append(epoch)
    return bad
