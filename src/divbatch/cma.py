"""CMA-ES core with a block sampler.

Implements weighted-recombination CMA-ES with cumulative step-size
adaptation and rank-one plus rank-mu covariance updates, exposed as
``init_cma`` / ``ask_clear`` / ``tell`` / ``should_stop``.  Every argument
of ``init_cma(mean, seed, box)`` and of the samplers is required: D is
``box.dimension``, and the samplers read the state's ``box``.
``ask_clear`` is the one sampler: each round draws a block of candidates,
keeps them in the box by resampling (clipping after 100 tries, as in
Hansen's CMA-ES tutorial), rejects those closer than ``d_min`` to a set
of centers, and keeps the draws past its stop in ``z_spare``, where the
next call takes its first normals, so it returns what a one-candidate
loop would and each candidate gets the normals that loop would give it.
``ask(state, n)`` is ``ask_clear`` with no centers and ``ask_one``
is ``ask`` with n = 1.  ``tell(state, xs, fs)`` accepts any population of
size between mu and lambda, so callers that drop candidates can still
advance the distribution.  ``CmaParams(D)`` holds what D fixes; the step
size ``SIGMA0`` and the stop tolerances ``TOL_*`` do not depend on it and
are module constants.
``tell`` and the sampler's rounds are cut to their arithmetic while
giving the bits of the plain NumPy forms: the median comes from
``tell``'s own sort, and a block maps and box-tests every draw but clips,
tabu-tests and copies only its candidates, scanning for the 100th miss
only when its misses can reach 100.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .boxes import Box, distances
from .trajectory import _check_int, fitness_keys

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
STOP_TOLSTAGNATION = "tolstagnation"
STOP_MAXITER = "maxiter"
STOP_DEGENERATE = "degenerate"

# the initial step size, and the stop tolerances of ``should_stop``: none
# depends on the dimension
SIGMA0 = 1.0
TOL_X = 1e-11
TOL_FUN = 1e-11
TOL_FUN_HIST = 1e-12
# generations in each half of the tolstagnation window
TOL_STAGNATION = 146

# out-of-box candidates are redrawn this many times before clipping
_RESAMPLE_TRIES = 100
# rows one block of ``ask_clear`` draws at most, to bound its memory; the
# normals a call keeps for the next one are at most one block's tail
_MAX_BLOCK_ROWS = 1024
# the first block of an ``ask_clear`` call holds this many times the draws
# that the last call's draws per clear candidate predict, taking that ratio
# as at most ``_FIRST_BLOCK_MAX_RATIO``: a higher one mostly falls by the
# next call, and first blocks sized from it raised peak memory
_FIRST_BLOCK_SLACK = 1.5
_FIRST_BLOCK_MAX_RATIO = 8.0
_MAX_CONDITION = 1e14


class InvalidMean(ValueError):
    """Initial mean is not a point of the state's dimension inside the search box."""


class AlreadyStopped(RuntimeError):
    """ask_clear (so ask and ask_one too) called on a state that has met a stopping criterion."""


class InsufficientPopulation(ValueError):
    """tell called with fewer than mu candidates."""


@dataclass(frozen=True, eq=False, init=False)
class CmaParams:
    """The strategy parameters ``CmaParams(D)``: D, an int of at least 1, fixes every one.

    They follow the standard parameterization: ``lambda = 4 + floor(3 ln D)``,
    ``mu = floor(lambda / 2)`` parents with positive log-rank weights, the
    usual CSA / rank-one / rank-mu learning rates derived from ``mu_eff``,
    ``chi_n``, about E||N(0, I)||, and ``max_iter = 1000 D^2``.  They are built
    once per D and shared: ``CmaParams(D)``, a copy and a pickle are that
    one frozen object, and its ``weights`` are read-only.
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
    chi_n: float
    max_iter: int

    def __new__(cls, dimension: int) -> CmaParams:
        _check_int("dimension", dimension, 1)
        return _params_of(int(dimension))

    def __reduce__(self):
        return CmaParams, (self.dimension,)


@functools.cache
def _params_of(dimension: int) -> CmaParams:
    d = float(dimension)
    lambda_ = 4 + int(math.floor(3.0 * math.log(dimension)))
    mu = lambda_ // 2
    raw = np.log((lambda_ + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    weights.flags.writeable = False
    mu_eff = 1.0 / float(np.sum(weights**2))
    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
    params = object.__new__(CmaParams)
    # the fields are frozen, so they are set past the dataclass's __setattr__, in field order
    values = (dimension, lambda_, mu, weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n)
    vars(params).update(zip((f.name for f in fields(CmaParams)), (*values, 1000 * dimension**2)))
    return params


@dataclass(eq=False)
class CmaState:
    """Mutable sampling distribution plus stop bookkeeping."""

    params: CmaParams
    # the box ``init_cma`` checked the mean against; every candidate is in it
    box: Box
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    rng: np.random.Generator
    iteration: int = 0
    stop_reason: str | None = None
    # eigendecomposition of ``cov`` at the last ``tell`` that left the state running
    eig_vectors: np.ndarray = field(default=None, repr=False)
    eig_scale: np.ndarray = field(default=None, repr=False)
    last_range: float | None = field(default=None, repr=False)
    hist_best: deque = field(default=None, repr=False)
    stagn_best: deque = field(default=None, repr=False)
    stagn_median: deque = field(default=None, repr=False)
    # normals ``ask_clear`` drew past its last stop, in stream order: the
    # next call takes its first rows from them, then from ``rng``
    z_spare: np.ndarray = field(default=None, repr=False)
    # draws per clear candidate in the last ``ask_clear`` call
    draws_per_clear: float = field(default=1.0, repr=False)


def init_cma(mean: np.ndarray, seed: int, box: Box) -> CmaState:
    """Fresh state centered at ``mean`` with step size ``SIGMA0`` and identity covariance.

    D is ``box.dimension``, and the state's ``params`` are ``CmaParams(D)``;
    a mean of another length or outside ``box`` is ``InvalidMean``.
    """
    dimension = box.dimension
    params = CmaParams(dimension)
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (dimension,):
        raise InvalidMean(f"mean must have shape ({dimension},), got {mean.shape}")
    if not box.contains(mean):
        raise InvalidMean(f"mean {mean} lies outside the box")
    hist_len = 10 + math.ceil(30.0 * dimension / params.lambda_)
    return CmaState(
        params=params,
        box=box,
        mean=mean.copy(),
        sigma=SIGMA0,
        cov=np.eye(dimension),
        p_sigma=np.zeros(dimension),
        p_c=np.zeros(dimension),
        rng=np.random.default_rng(seed),
        eig_vectors=np.eye(dimension),
        eig_scale=np.ones(dimension),
        hist_best=deque(maxlen=hist_len),
        stagn_best=deque(maxlen=2 * TOL_STAGNATION),
        stagn_median=deque(maxlen=2 * TOL_STAGNATION),
        z_spare=np.empty((0, dimension)),
    )


def ask_clear(
    state: CmaState, n: int, centers: np.ndarray, d_min: float, cap: int
) -> tuple[np.ndarray, int]:
    """Draw until n candidates are clear of ``centers`` or ``cap`` are not.

    A candidate is the first draw in ``state.box`` of up to 100 tries; after
    100 out-of-box draws the last one is clipped.  It is clear when it lies at
    least ``d_min`` from every row of ``centers`` (closed inequality; with
    no centers every candidate is).  Returns the clear candidates, in draw
    order, and the number rejected.  The candidates and the rejections are
    exactly those of a loop over ``ask_one`` calls that stops at the n-th
    clear or the ``cap``-th rejected candidate.  The normals drawn past
    that stop stay in ``state.z_spare`` and open the next call, so every
    call gets the normals the loop would.  Sampling never changes the
    distribution.

    Each block of draws is mapped and box-tested row by row; the clip,
    the distance test and the copy run on its candidates only, and the
    scan for the 100th consecutive miss runs only in a block whose
    out-of-box draws, with those carried from the last block, can
    reach 100.
    """
    if state.stop_reason is not None:
        raise AlreadyStopped(f"state already stopped ({state.stop_reason})")
    rng, dim, box = state.rng, state.params.dimension, state.box
    spare = state.z_spare
    out = np.empty((n, dim))
    done = rejected = drawn = 0
    # out-of-box draws since the last candidate, carried across blocks
    misses = 0
    # the first block: the draws the last call's ratio predicts, with slack
    rows = math.ceil(_FIRST_BLOCK_SLACK * n * min(state.draws_per_clear, _FIRST_BLOCK_MAX_RATIO))
    while done < n and rejected < cap:
        owed, allowed = n - done, cap - rejected
        if drawn:
            # as many draws as the acceptance so far suggests; before any
            # acceptance, twice the draws so far
            rows = -(-owed * drawn // done) if done else 2 * drawn
        rows = min(_MAX_BLOCK_ROWS, rows)
        # the spare normals come first in the stream, then the rng's
        have = len(spare)
        if rows <= have:
            z = spare[:rows]
        else:
            z = np.empty((rows, dim))
            z[:have] = spare
            rng.standard_normal(out=z[have:])
        # a stacked matmul is one matrix-vector product per row, the same
        # bits as ``eig_vectors @ v`` on each row alone
        xs = state.mean + state.sigma * np.matmul(
            state.eig_vectors, (state.eig_scale * z)[:, :, None]
        )[:, :, 0]
        inside = ((xs >= box.lower) & (xs <= box.upper)).all(axis=1)
        # the candidate rows: each in-box draw, and each 100th out-of-box
        # draw after the last candidate, which is clipped; ``xc`` holds the
        # candidates
        cand = inside.nonzero()[0]
        scanned = rows - len(cand) + misses >= _RESAMPLE_TRIES
        if scanned:
            # a run of misses can reach 100 in this block (clipping leaves
            # in-box draws as they are)
            row = np.arange(rows)
            last = np.maximum.accumulate(np.where(inside, row, -1 - misses))
            cand = ((row - last) % _RESAMPLE_TRIES == 0).nonzero()[0]
            xc = box.clip(xs[cand])
        else:
            xc = xs[cand]
        hits, misfits = cand, ()
        if len(centers):
            # a candidate's distances have the bits of its one-row calls
            clear = (distances(xc[:, None], centers) >= d_min).all(axis=1)
            hits, misfits = cand[clear], cand[~clear]
            xc = xc[clear]
        # the draw after which a one-candidate loop would stop
        used = rows
        if len(hits) >= owed:
            used = hits[owed - 1] + 1
        if len(misfits) >= allowed:
            used = min(used, misfits[allowed - 1] + 1)
        take = bisect_left(hits, used)
        out[done : done + take] = xc[:take]
        done += take
        rejected += bisect_left(misfits, used)
        drawn += used
        # out-of-box draws of the candidate in progress at the stop
        if scanned:
            misses = (used - 1 - last[used - 1]) % _RESAMPLE_TRIES
        else:
            j = bisect_left(cand, used)
            misses = used - 1 - cand[j - 1] if j else misses + used
        # the draws past the stop open the next block, or the next call
        spare = z[used:] if rows >= have else spare[used:]
    state.z_spare = spare
    if drawn:
        state.draws_per_clear = drawn / max(done, 1)
    return out[:done], rejected


def ask(state: CmaState, n: int) -> np.ndarray:
    """Draw n candidates, each kept inside the box: ``ask_clear`` with no centers.

    Returns an (n, D) array, the candidates of n successive ``ask_one`` calls.
    """
    # with no centers nothing is rejected, so a cap of n never binds
    return ask_clear(state, n, np.empty((0, state.params.dimension)), 0.0, n)[0]


def ask_one(state: CmaState) -> np.ndarray:
    """Draw one candidate: ``ask`` with n = 1."""
    return ask(state, 1)[0]


def tell(state: CmaState, xs: np.ndarray, fs: np.ndarray) -> None:
    """Advance the distribution one generation from evaluated candidates.

    ``xs`` is an (n, D) array of candidates and ``fs`` their n fitness
    values, lower better.  Any n in [mu, lambda] is accepted; the mu best
    are recombined with the standard weights.  The parents and the stop
    statistics (best, median, range) rank NaN as +inf, as
    ``trajectory.fitness_keys`` does, ties broken by row; a median between
    -inf and +inf ranks as +inf too.  The stop is ``should_stop``'s, else
    ``degenerate`` if the new covariance will not decompose: only a running
    state is decomposed, and a stopped one keeps its last eigensystem.
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
    # argsort puts NaN after +inf; ``fitness_keys`` ranks NaN as +inf and
    # breaks the tie by row
    if fs[order[-1]] != fs[order[-1]]:
        fs = fitness_keys(fs)
        order = np.argsort(fs, kind="stable")
    parents = xs[order[: params.mu]]
    w = params.weights

    mean_old = state.mean
    sigma = state.sigma
    mean_new = w @ parents
    y_w = (mean_new - mean_old) / sigma

    c_s, d_s = params.c_sigma, params.d_sigma
    c_c, c_1, c_mu = params.c_c, params.c_1, params.c_mu
    mu_eff, dim, chi_n = params.mu_eff, params.dimension, params.chi_n

    # CSA path in the whitened coordinate system
    cov_inv_half_yw = state.eig_vectors @ ((state.eig_vectors.T @ y_w) / state.eig_scale)
    p_sigma = (1.0 - c_s) * state.p_sigma + math.sqrt(c_s * (2.0 - c_s) * mu_eff) * cov_inv_half_yw
    # the formula of ``np.linalg.norm`` for a vector
    norm_ps = math.sqrt(p_sigma.dot(p_sigma))
    expected = math.sqrt(1.0 - (1.0 - c_s) ** (2 * (state.iteration + 1)))
    h_sigma = 1.0 if norm_ps / expected / chi_n < 1.4 + 2.0 / (dim + 1.0) else 0.0

    p_c = (1.0 - c_c) * state.p_c + h_sigma * math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

    ys = (parents - mean_old) / sigma
    rank_mu = ys.T @ (w[:, None] * ys)
    delta_h = (1.0 - h_sigma) * c_c * (2.0 - c_c)
    cov = (
        (1.0 - c_1 - c_mu) * state.cov
        + c_1 * (p_c[:, None] * p_c + delta_h * state.cov)
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
    # the bits of ``np.median``: its mean adds the middle values to 0.0
    mid = n // 2
    upper = 0.0 + float(fs[order[mid]])
    med = upper if n % 2 else (upper + float(fs[order[mid - 1]])) / 2
    if med != med:
        # the middle values are -inf and +inf; the median ranks as +inf
        med = math.inf
    state.last_range = float(np.maximum.reduce(fs)) - float(np.minimum.reduce(fs))
    state.hist_best.append(best)
    state.stagn_best.append(best)
    state.stagn_median.append(med)

    state.stop_reason = should_stop(state) or _refresh_eigensystem(state)


def _refresh_eigensystem(state: CmaState) -> str | None:
    """Store the covariance's eigensystem, or keep the last and return ``STOP_DEGENERATE``."""
    if not (np.isfinite(state.cov).all() and math.isfinite(state.sigma) and state.sigma > 0):
        return STOP_DEGENERATE
    try:
        vals, vecs = np.linalg.eigh(state.cov)
    except np.linalg.LinAlgError:
        return STOP_DEGENERATE
    low, high = float(vals[0]), float(vals[-1])
    if not np.isfinite(vals).all() or low <= 0.0 or high / low > _MAX_CONDITION:
        return STOP_DEGENERATE
    state.eig_vectors = vecs
    state.eig_scale = np.sqrt(vals)
    return None


def should_stop(state: CmaState) -> str | None:
    """First triggered criterion of tolx, tolfun, tolfunhist, tolstagnation and
    maxiter, in that order, or None; ``tell`` adds ``degenerate`` after them."""
    sigma = state.sigma

    scales = sigma * np.sqrt(state.cov.diagonal())
    if (scales < TOL_X).all() and (sigma * np.abs(state.p_c) < TOL_X).all():
        return STOP_TOLX

    hist, last_range = state.hist_best, state.last_range
    span = max(hist) - min(hist) if hist else math.inf
    if last_range is not None and last_range < TOL_FUN and span < TOL_FUN:
        return STOP_TOLFUN

    if len(hist) >= 10 and span < TOL_FUN_HIST:
        return STOP_TOLFUNHIST

    window = TOL_STAGNATION
    if len(state.stagn_best) >= 2 * window:
        best = list(state.stagn_best)
        med = list(state.stagn_median)
        if (
            np.median(best[-window:]) >= np.median(best[:window])
            and np.median(med[-window:]) >= np.median(med[:window])
        ):
            return STOP_TOLSTAGNATION

    if state.iteration >= state.params.max_iter:
        return STOP_MAXITER

    return None
