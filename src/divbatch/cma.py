"""CMA-ES core with a block sampler.

Implements weighted-recombination CMA-ES with cumulative step-size
adaptation and rank-one plus rank-mu covariance updates, exposed as
``init_cma`` / ``ask_clear`` / ``tell`` / ``should_stop``.  ``ask_clear``
is the one sampler: each round draws a block of candidates, keeps them in
the box by resampling (clipping after 100 tries, as in Hansen's CMA-ES
tutorial), rejects those closer than ``d_min`` to a set of centers, and
hands the draws past its stop back to the rng, so it returns what a
one-candidate loop would and leaves the rng where that loop would.
``ask(state, box, n)`` is ``ask_clear`` with no centers and ``ask_one``
is ``ask`` with n = 1.  ``tell(state, xs, fs)`` accepts any population of
size between mu and lambda, so callers that drop candidates can still
advance the distribution.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .boxes import Box, distances

__all__ = [
    "AlreadyStopped",
    "CmaParams",
    "CmaState",
    "InsufficientPopulation",
    "InvalidMean",
    "STOP_DEGENERATE",
    "STOP_MAXITER",
    "STOP_TOLFUN",
    "STOP_TOLFUNHIST",
    "STOP_TOLFUNREL",
    "STOP_TOLSTAGNATION",
    "STOP_TOLX",
    "ask",
    "ask_clear",
    "ask_one",
    "init_cma",
    "should_stop",
    "tell",
]

STOP_TOLX = "tolx"
STOP_TOLFUN = "tolfun"
STOP_TOLFUNHIST = "tolfunhist"
STOP_TOLFUNREL = "tolfunrel"
STOP_TOLSTAGNATION = "tolstagnation"
STOP_MAXITER = "maxiter"
STOP_DEGENERATE = "degenerate"

# out-of-box candidates are redrawn this many times before clipping
_RESAMPLE_TRIES = 100
# rows one block of ``ask_clear`` draws at most, to bound its memory: its
# distance temporaries hold rows x centers x D floats
_MAX_BLOCK_ROWS = 1024
_MAX_CONDITION = 1e14


class InvalidMean(ValueError):
    """Initial mean lies outside the search box."""


class AlreadyStopped(RuntimeError):
    """ask or ask_one called on a state that has met a stopping criterion."""


class InsufficientPopulation(ValueError):
    """tell called with fewer than mu candidates."""


@dataclass(frozen=True)
class CmaParams:
    """Strategy parameters, frozen at initialization.

    Defaults follow the standard parameterization: population size
    ``lambda = 4 + floor(3 ln D)``, ``mu = floor(lambda / 2)`` parents with
    positive log-rank weights, and the usual CSA / rank-one / rank-mu
    learning rates derived from ``mu_eff``.
    """

    dimension: int
    lambda_: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    sigma0: float = 1.0
    tol_x: float = 1e-11
    tol_fun: float = 1e-11
    tol_fun_hist: float = 1e-12
    tol_fun_rel: float = 0.0
    tol_stagnation: int = 146
    max_iter: int = 0

    @classmethod
    def defaults(cls, dimension: int, lambda_: int | None = None) -> "CmaParams":
        d = float(dimension)
        if lambda_ is None:
            lambda_ = 4 + int(math.floor(3.0 * math.log(dimension)))
        mu = lambda_ // 2
        raw = np.log((lambda_ + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        weights = raw / raw.sum()
        mu_eff = 1.0 / float(np.sum(weights**2))
        c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
        d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
        c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
        c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
        c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
        return cls(
            dimension=dimension,
            lambda_=lambda_,
            mu=mu,
            weights=weights,
            mu_eff=mu_eff,
            c_sigma=c_sigma,
            d_sigma=d_sigma,
            c_c=c_c,
            c_1=c_1,
            c_mu=c_mu,
            max_iter=1000 * dimension**2,
        )

    def with_overrides(self, **changes) -> "CmaParams":
        return replace(self, **changes)


@dataclass
class CmaState:
    """Mutable sampling distribution plus stop bookkeeping."""

    params: CmaParams
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    rng: np.random.Generator
    iteration: int = 0
    stop_reason: str | None = None
    # eigendecomposition cache, refreshed after every covariance update
    eig_vectors: np.ndarray = field(default=None, repr=False)
    eig_scale: np.ndarray = field(default=None, repr=False)
    degenerate: bool = field(default=False, repr=False)
    last_range: float | None = field(default=None, repr=False)
    first_median: float | None = field(default=None, repr=False)
    best_median: float | None = field(default=None, repr=False)
    hist_best: deque = field(default=None, repr=False)
    stagn_best: deque = field(default=None, repr=False)
    stagn_median: deque = field(default=None, repr=False)

    @property
    def chi_n(self) -> float:
        d = self.params.dimension
        return math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))


def init_cma(
    dimension: int,
    mean: np.ndarray,
    params: CmaParams | None = None,
    seed: int = 0,
    box: Box | None = None,
) -> CmaState:
    """Fresh state centered at ``mean`` with unit step size and identity covariance."""
    if params is None:
        params = CmaParams.defaults(dimension)
    if box is None:
        box = Box.cube(dimension)
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (dimension,):
        raise InvalidMean(f"mean must have shape ({dimension},), got {mean.shape}")
    if not box.contains(mean):
        raise InvalidMean(f"mean {mean} lies outside the box")
    hist_len = 10 + math.ceil(30.0 * dimension / params.lambda_)
    return CmaState(
        params=params,
        mean=mean.copy(),
        sigma=params.sigma0,
        cov=np.eye(dimension),
        p_sigma=np.zeros(dimension),
        p_c=np.zeros(dimension),
        rng=np.random.default_rng(seed),
        eig_vectors=np.eye(dimension),
        eig_scale=np.ones(dimension),
        hist_best=deque(maxlen=hist_len),
        stagn_best=deque(maxlen=2 * params.tol_stagnation),
        stagn_median=deque(maxlen=2 * params.tol_stagnation),
    )


def ask_clear(
    state: CmaState, box: Box, n: int, centers: np.ndarray, d_min: float, cap: int
) -> tuple[np.ndarray, int]:
    """Draw until n candidates are clear of ``centers`` or ``cap`` are not.

    A candidate is the first in-box draw of up to 100 tries; after 100
    out-of-box draws the last one is clipped.  It is clear when it lies at
    least ``d_min`` from every row of ``centers`` (closed inequality; with
    no centers every candidate is).  Returns the clear candidates, in draw
    order, and the number rejected.  The candidates, the rejections and
    the rng consumed are exactly those of a loop over ``ask_one`` calls
    that stops at the n-th clear or the ``cap``-th rejected candidate.
    Sampling never changes the distribution.
    """
    if state.stop_reason is not None:
        raise AlreadyStopped(f"state already stopped ({state.stop_reason})")
    rng, dim = state.rng, state.params.dimension
    out = np.empty((n, dim))
    done = rejected = drawn = 0
    # out-of-box draws since the last in-box one, carried across blocks
    misses = 0
    while done < n and rejected < cap:
        owed, allowed = n - done, cap - rejected
        # as many draws as the acceptance so far suggests; before any
        # acceptance, one per candidate owed, then twice the draws so far
        rows = min(_MAX_BLOCK_ROWS, -(-owed * drawn // done) if done else max(owed, 2 * drawn))
        # a block of at most min(owed, allowed) rows cannot pass the stop
        saved = rng.bit_generator.state if rows > min(owed, allowed) else None
        z = rng.standard_normal((rows, dim))
        # a stacked matmul is one matrix-vector product per row, the same
        # bits as ``eig_vectors @ v`` on each row alone
        xs = state.mean + state.sigma * np.matmul(
            state.eig_vectors, (state.eig_scale * z)[:, :, None]
        )[:, :, 0]
        inside = ((xs >= box.lower) & (xs <= box.upper)).all(axis=1)
        row = np.arange(rows)
        # the candidates: each in-box draw, and the 100th, 200th, ... draw
        # out of the box since the last in-box one, which is clipped
        last = np.maximum.accumulate(np.where(inside, row, -1 - misses))
        candidate = (row - last) % _RESAMPLE_TRIES == 0
        # clipping leaves in-box draws as they are
        xs = box.clip(xs)
        clear = (distances(xs[:, None, :], centers) >= d_min).all(axis=1)
        kept, dropped = candidate & clear, candidate & ~clear
        hits, misfits = kept.nonzero()[0], dropped.nonzero()[0]
        # the draw after which a one-candidate loop would stop
        used = rows
        if len(hits) >= owed:
            used = hits[owed - 1] + 1
        if len(misfits) >= allowed:
            used = min(used, misfits[allowed - 1] + 1)
        take = int(np.count_nonzero(kept[:used]))
        out[done : done + take] = xs[hits[:take]]
        done += take
        rejected += int(np.count_nonzero(dropped[:used]))
        drawn += used
        misses = used - 1 - last[used - 1]
        if used < rows:
            # hand back the draws past the stop
            rng.bit_generator.state = saved
            rng.standard_normal((used, dim))
    return out[:done], rejected


def ask(state: CmaState, box: Box | None = None, n: int = 1) -> np.ndarray:
    """Draw n candidates, each kept inside the box: ``ask_clear`` with no centers.

    Returns an (n, D) array, the candidates of n successive ``ask_one`` calls.
    """
    if box is None:
        box = Box.cube(state.params.dimension)
    # with no centers nothing is rejected, so a cap of n never binds
    return ask_clear(state, box, n, np.empty((0, state.params.dimension)), 0.0, n)[0]


def ask_one(state: CmaState, box: Box | None = None) -> np.ndarray:
    """Draw one candidate: ``ask`` with n = 1."""
    return ask(state, box, 1)[0]


def tell(state: CmaState, xs: np.ndarray, fs: np.ndarray) -> None:
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
    chi_n = state.chi_n
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
    state.last_range = float(fs.max() - fs.min())
    state.hist_best.append(best)
    state.stagn_best.append(best)
    state.stagn_median.append(med)
    if state.first_median is None:
        state.first_median = med
    state.best_median = med if state.best_median is None else min(state.best_median, med)

    _refresh_eigensystem(state)
    state.stop_reason = should_stop(state)


def _refresh_eigensystem(state: CmaState) -> None:
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


def should_stop(state: CmaState) -> str | None:
    """First triggered stopping criterion, or None while the run may continue."""
    params = state.params

    scales = state.sigma * np.sqrt(np.diag(state.cov))
    if np.all(scales < params.tol_x) and np.all(state.sigma * np.abs(state.p_c) < params.tol_x):
        return STOP_TOLX

    if state.last_range is not None and state.hist_best:
        span = max(state.hist_best) - min(state.hist_best)
        if state.last_range < params.tol_fun and span < params.tol_fun:
            return STOP_TOLFUN

    if len(state.hist_best) >= 10:
        span = max(state.hist_best) - min(state.hist_best)
        if span < params.tol_fun_hist:
            return STOP_TOLFUNHIST

    if state.last_range is not None and state.first_median is not None:
        drop = state.first_median - state.best_median
        if state.last_range < params.tol_fun_rel * drop:
            return STOP_TOLFUNREL

    window = params.tol_stagnation
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
