"""Seeded benchmark objectives for box-constrained minimization.

Every objective is built from a nonnegative core ``g`` with ``g(0) = 0``,
shifted so the global optimum sits at a seeded ``x_opt`` with value
``f_opt``: ``f(x) = f_opt + g(x - x_opt)``.  The search box is
``[-5, 5]^D`` and optima are drawn strictly inside it, in ``[-4, 4]^D``,
with ``f_opt`` uniform in ``[-100, 100]``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boxes import Box

__all__ = [
    "DimensionMismatch",
    "InvalidDimension",
    "ObjectiveFunction",
    "UnknownFunction",
    "function_ids",
    "function_registry",
    "make_function",
]

GROUP_SEPARABLE = "separable"
GROUP_LOW_COND = "low-moderate-conditioning"
GROUP_HIGH_COND = "high-conditioning-unimodal"
GROUP_MULTI_STRONG = "multimodal-strong-structure"
GROUP_MULTI_WEAK = "multimodal-weak-structure"

X_OPT_RANGE = 4.0
F_OPT_RANGE = 100.0
N_GAUSS_PEAKS = 21


class UnknownFunction(KeyError):
    """Requested function id is not registered."""

    __str__ = Exception.__str__  # a KeyError's own str() quotes the message


class InvalidDimension(ValueError):
    """Requested dimension is not supported (must be >= 2)."""


class DimensionMismatch(ValueError):
    """Input vector length does not match the function dimension."""


def _sphere(z: np.ndarray) -> np.ndarray:
    # sum z_i^2
    return np.sum(z * z, axis=1)


def _ellipsoid(z: np.ndarray) -> np.ndarray:
    # sum 10^(6 (i-1)/(D-1)) z_i^2
    d = z.shape[1]
    weights = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    return np.sum(weights * z * z, axis=1)


def _rastrigin_sep(z: np.ndarray) -> np.ndarray:
    # 10 (D - sum cos 2 pi z_i) + sum z_i^2
    d = z.shape[1]
    return 10.0 * (d - np.sum(np.cos(2.0 * np.pi * z), axis=1)) + np.sum(z * z, axis=1)


def _rosenbrock(z: np.ndarray) -> np.ndarray:
    # sum 100 (w_i^2 - w_{i+1})^2 + (w_i - 1)^2 with w = z + 1, optimum at z = 0
    w = z + 1.0
    a, b = w[:, :-1], w[:, 1:]
    return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=1)


def _bent_cigar(z: np.ndarray) -> np.ndarray:
    # z_1^2 + 10^6 sum_{i>=2} z_i^2
    return z[:, 0] ** 2 + 1e6 * np.sum(z[:, 1:] ** 2, axis=1)


def _discus(z: np.ndarray) -> np.ndarray:
    # 10^6 z_1^2 + sum_{i>=2} z_i^2
    return 1e6 * z[:, 0] ** 2 + np.sum(z[:, 1:] ** 2, axis=1)


def _diff_powers(z: np.ndarray) -> np.ndarray:
    # sum |z_i|^(2 + 4 (i-1)/(D-1))
    d = z.shape[1]
    exponents = 2.0 + 4.0 * np.arange(d) / (d - 1)
    return np.sum(np.abs(z) ** exponents, axis=1)


def _schaffers_f7(z: np.ndarray) -> np.ndarray:
    # ((1/(D-1)) sum sqrt(s_i) + sqrt(s_i) sin^2(50 s_i^(1/5)))^2, s_i = sqrt(z_i^2 + z_{i+1}^2)
    s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
    root = np.sqrt(s)
    terms = root + root * np.sin(50.0 * s**0.2) ** 2
    return (np.mean(terms, axis=1)) ** 2


def _griewank(z: np.ndarray) -> np.ndarray:
    # sum z_i^2 / 4000 - prod cos(z_i / sqrt(i)) + 1
    d = z.shape[1]
    denom = np.sqrt(np.arange(1, d + 1))
    return np.sum(z * z, axis=1) / 4000.0 - np.prod(np.cos(z / denom), axis=1) + 1.0


def _make_gauss_peaks(dimension: int, rng: np.random.Generator) -> Callable[[np.ndarray], np.ndarray]:
    """Peak landscape H - max_j h_j exp(-|x - c_j|^2 / (2 s_j^2)).

    Centers are expressed relative to x_opt, so the returned core takes the
    usual offset z = x - x_opt and the first center is the origin.  The
    first peak height is swapped to the maximum, which makes the optimum
    unique at z = 0 with core value exactly 0.
    """
    heights = rng.uniform(1.0, 10.0, size=N_GAUSS_PEAKS)
    top = int(np.argmax(heights))
    heights[0], heights[top] = heights[top], heights[0]
    centers = rng.uniform(-X_OPT_RANGE, X_OPT_RANGE, size=(N_GAUSS_PEAKS, dimension))
    centers[0] = 0.0
    sigmas = rng.uniform(0.5, 2.0, size=N_GAUSS_PEAKS)
    h_max = heights[0]

    def core(z: np.ndarray, _c=centers, _h=heights, _s=sigmas) -> np.ndarray:
        sq = np.sum((z[:, None, :] - _c[None, :, :]) ** 2, axis=2)
        peaks = _h * np.exp(-sq / (2.0 * _s * _s))
        return h_max - np.max(peaks, axis=1)

    return core


@dataclass(frozen=True)
class _FunctionSpec:
    label: str
    group: str
    core: Callable[[np.ndarray], np.ndarray] | None
    # cores needing seeded parameters are built per instance
    factory: Callable[[int, np.random.Generator], Callable[[np.ndarray], np.ndarray]] | None = None


_REGISTRY: dict[str, _FunctionSpec] = {
    "sphere": _FunctionSpec("Sphere", GROUP_SEPARABLE, _sphere),
    "ellipsoid": _FunctionSpec("Ellipsoid (condition 1e6)", GROUP_SEPARABLE, _ellipsoid),
    "rastrigin_sep": _FunctionSpec("Rastrigin (separable)", GROUP_SEPARABLE, _rastrigin_sep),
    "rosenbrock": _FunctionSpec("Rosenbrock", GROUP_LOW_COND, _rosenbrock),
    "bent_cigar": _FunctionSpec("Bent cigar", GROUP_HIGH_COND, _bent_cigar),
    "discus": _FunctionSpec("Discus", GROUP_HIGH_COND, _discus),
    "diff_powers": _FunctionSpec("Sum of different powers", GROUP_HIGH_COND, _diff_powers),
    "schaffers_f7": _FunctionSpec("Schaffers F7", GROUP_MULTI_STRONG, _schaffers_f7),
    "griewank": _FunctionSpec("Griewank", GROUP_MULTI_STRONG, _griewank),
    "gauss_peaks": _FunctionSpec("Gaussian peaks", GROUP_MULTI_WEAK, None, _make_gauss_peaks),
}


def function_ids() -> list[str]:
    """Registered function ids, in registry order."""
    return list(_REGISTRY)


def function_registry() -> list[tuple[str, str, str]]:
    """(id, group, label) rows for every registered function."""
    return [(fid, spec.group, spec.label) for fid, spec in _REGISTRY.items()]


@dataclass
class ObjectiveFunction:
    """A seeded objective instance over the box [-5, 5]^D.

    Attributes
    ----------
    function_id : str
        Registry id, e.g. ``"sphere"``.
    dimension : int
        Input dimension D (>= 2).
    x_opt : ndarray
        Location of the global optimum, strictly inside the box.
    f_opt : float
        Objective value at ``x_opt``.
    group : str
        Structural group label.
    eval_count : int
        Number of evaluations performed so far.
    """

    function_id: str
    dimension: int
    x_opt: np.ndarray
    f_opt: float
    group: str
    box: Box
    _core: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    eval_count: int = 0

    @property
    def lower_bounds(self) -> np.ndarray:
        return self.box.lower

    @property
    def upper_bounds(self) -> np.ndarray:
        return self.box.upper

    def evaluate(self, x: np.ndarray) -> float:
        """Objective value at ``x``; counts one evaluation."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"expected vector of length {self.dimension}, got shape {x.shape}"
            )
        self.eval_count += 1
        return float(self.f_opt + self._core((x - self.x_opt)[None, :])[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Objective values for an (n, D) array; counts n evaluations."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected (n, {self.dimension}) array, got shape {xs.shape}"
            )
        self.eval_count += xs.shape[0]
        return self.f_opt + self._core(xs - self.x_opt)

    def loss(self, value: float) -> float:
        """Distance of an objective value from the optimal value."""
        return abs(value - self.f_opt)


def make_function(function_id: str, dimension: int, seed: int) -> ObjectiveFunction:
    """Instantiate a registered objective with seeded optimum placement.

    The same (function_id, dimension, seed) triple always yields an
    identical instance.
    """
    if function_id not in _REGISTRY:
        raise UnknownFunction(f"unknown function id {function_id!r}")
    if dimension < 2:
        raise InvalidDimension(f"dimension must be >= 2, got {dimension}")
    spec = _REGISTRY[function_id]
    # mix the id into the stream so functions sharing a seed decorrelate
    rng = np.random.default_rng([seed, dimension, zlib.crc32(function_id.encode())])
    x_opt = rng.uniform(-X_OPT_RANGE, X_OPT_RANGE, size=dimension)
    f_opt = float(rng.uniform(-F_OPT_RANGE, F_OPT_RANGE))
    core = spec.core if spec.factory is None else spec.factory(dimension, rng)
    return ObjectiveFunction(
        function_id=function_id,
        dimension=dimension,
        x_opt=x_opt,
        f_opt=f_opt,
        group=spec.group,
        box=Box.cube(dimension),
        _core=core,
    )
