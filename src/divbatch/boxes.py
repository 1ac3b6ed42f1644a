"""Axis-aligned box search domains and the Euclidean distance kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "distances"]


def distances(xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances from each row of ``xs`` to ``y`` (broadcasting).

    This is the one distance kernel of the package: the cascade's tabu
    filter, its initial means and every selector compare its result with
    ``d_min`` by the closed inequality ``>=``, which a NaN distance (from
    inf - inf or a NaN coordinate) never meets.  Each distance is the
    square root of one einsum sum of the squared differences over the last
    axis, with einsum's default ``optimize=False``, which never hands the
    sum to BLAS.  Its values can differ from ``np.linalg.norm`` or
    ``np.add.reduce`` in the last ulps.  A square that overflows gives +inf
    without a floating-point warning.  A 1-D ``xs`` gives a 0-d result; any
    row gives the same bits whether it is passed alone or inside a larger
    array, because every shape takes this one formula.
    """
    diff = xs - y
    return np.sqrt(np.einsum("...j,...j->...", diff, diff))


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``[lower_i, upper_i]`` per coordinate."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def cube(cls, dimension: int, lower: float = -5.0, upper: float = 5.0) -> "Box":
        return cls(np.full(dimension, float(lower)), np.full(dimension, float(upper)))

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def diameter(self) -> float:
        """Length of the longest diagonal."""
        return float(distances(self.upper, self.lower))

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def sample_uniform(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Draw one point (n is None) or an (n, D) array of uniform points."""
        size = self.dimension if n is None else (n, self.dimension)
        return rng.uniform(self.lower, self.upper, size=size)
