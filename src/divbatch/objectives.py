"""Seeded benchmark objectives for box-constrained minimization.

Every objective is built from a nonnegative core ``g`` with ``g(0) = 0``,
shifted so the global optimum sits at a seeded ``x_opt`` with value
``f_opt``: ``f(x) = f_opt + g(x - x_opt)``.  The search box is
``[-5, 5]^D`` and optima are drawn strictly inside it, in ``[-4, 4]^D``,
with ``f_opt`` uniform in ``[-100, 100]``.

``evaluate_many`` works through blocks of rows whose largest core
temporary holds at most ``_EVAL_BLOCK_VALUES`` floats: D per row, and 21
peaks × D for the Gaussian-peaks core.  An evaluation's memory so grows
with its rows, not with rows × peaks × D, and a call of at most one
block's rows, such as a CMA-ES generation, is one core call.  Every
value is local to its row, so a block gives each row the bits of a
one-row call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boxes import Box
from .trajectory import _check_int

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
# the most floats in one evaluation block's largest core temporary
_EVAL_BLOCK_VALUES = 1 << 15


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
    two_var = 2.0 * sigmas * sigmas

    def core(z: np.ndarray) -> np.ndarray:
        # the (rows, peaks, D) differences are the largest temporary; they
        # are squared in place
        diff = z[:, None, :] - centers
        sq = np.add.reduce(np.square(diff, out=diff), axis=2)
        return h_max - (heights * np.exp(-sq / two_var)).max(axis=1)

    return core


@dataclass(frozen=True)
class _FunctionSpec:
    label: str
    group: str
    core: Callable[[np.ndarray], np.ndarray] | None
    # cores needing seeded parameters are built per instance
    factory: Callable[[int, np.random.Generator], Callable[[np.ndarray], np.ndarray]] | None = None
    # floats per row of the core's largest temporary, in units of D
    width: int = 1


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
    "gauss_peaks": _FunctionSpec(
        "Gaussian peaks", GROUP_MULTI_WEAK, None, _make_gauss_peaks, N_GAUSS_PEAKS
    ),
}


def function_ids() -> list[str]:
    """Registered function ids, in registry order."""
    return list(_REGISTRY)


def function_registry() -> list[tuple[str, str, str]]:
    """(id, group, label) rows for every registered function."""
    return [(fid, spec.group, spec.label) for fid, spec in _REGISTRY.items()]


@dataclass(eq=False)
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
    # rows per core call of ``evaluate_many``
    _block_rows: int = field(repr=False)
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
        return float(self.evaluate_many(x[None, :])[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Objective values for an (n, D) array; counts n evaluations.

        The core runs on blocks of ``_block_rows`` rows, so the memory a
        call takes beyond its output is one block's.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected (n, {self.dimension}) array, got shape {xs.shape}"
            )
        n = xs.shape[0]
        self.eval_count += n
        if n <= self._block_rows:
            # no loop and no output copy for a CMA-ES generation's few rows
            return self.f_opt + self._core(xs - self.x_opt)
        out = np.empty(n)
        for a in range(0, n, self._block_rows):
            b = a + self._block_rows
            out[a:b] = self.f_opt + self._core(xs[a:b] - self.x_opt)
        return out

    def loss(self, value: float) -> float:
        """Distance of an objective value from the optimal value."""
        return abs(value - self.f_opt)


def make_function(function_id: str, dimension: int, seed: int) -> ObjectiveFunction:
    """Instantiate a registered objective with seeded optimum placement.

    The same (function_id, dimension, seed) triple always yields an
    identical instance.  ``dimension`` is a Python or numpy int of at least
    2 (else ``InvalidDimension``) and ``seed`` one of at least 0 (else
    ``ValueError``); a bool is neither (``trajectory._check_int``).  The
    instance stores ``dimension`` as a Python int.
    """
    if function_id not in _REGISTRY:
        raise UnknownFunction(f"unknown function id {function_id!r}")
    _check_int("dimension", dimension, 2, InvalidDimension)
    _check_int("seed", seed, 0)
    dimension = int(dimension)
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
        _block_rows=max(1, _EVAL_BLOCK_VALUES // (spec.width * dimension)),
    )
