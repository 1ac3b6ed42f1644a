"""CMA-ES core tests.

Strategy constants for D=10 and D=2 are frozen from the standard
closed-form parameterization, the sampler is checked against Monte-Carlo
moments, and each stopping criterion is driven through the public
ask/tell interface.  ``tell`` is compared bit for bit with the reference
update in ``cascade_checks``, and the block sampler with one-candidate
loops, down to the normals each will use next.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import struct
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cascade_checks import (
    FlatFunction,
    reference_ask_clear,
    reference_ask_one,
    reference_tell,
    same_stream_position,
)
from divbatch import (
    AlreadyStopped,
    Box,
    CmaParams,
    DsConfig,
    InsufficientPopulation,
    InvalidMean,
    ask,
    ask_clear,
    ask_one,
    init_cma,
    make_function,
    should_stop,
    tell,
)
from divbatch import baselines, cascade, cma
from divbatch.cma import _MAX_BLOCK_ROWS
from divbatch.trajectory import fitness_keys

BIG = 1e9


def big_box(dim):
    return Box(np.full(dim, -BIG), np.full(dim, BIG))


def test_population_sizes_follow_the_log_rule():
    assert CmaParams(10).lambda_ == 10
    assert CmaParams(10).mu == 5
    assert CmaParams(2).lambda_ == 6
    assert CmaParams(2).mu == 3
    assert CmaParams(5).lambda_ == 8
    assert CmaParams(5).mu == 4


@pytest.mark.parametrize("dim", [2, 5, 10])
def test_stop_tolerances_are_pinned(dim):
    assert cma.TOL_X == 1e-11
    assert cma.TOL_FUN == 1e-11
    assert cma.TOL_FUN_HIST == 1e-12
    assert cma.TOL_STAGNATION == 146
    assert CmaParams(dim).max_iter == 1000 * dim**2
    st = init_cma(np.zeros(dim), 0, Box.cube(dim))
    assert st.sigma == cma.SIGMA0 == 1.0
    assert st.stagn_best.maxlen == st.stagn_median.maxlen == 2 * 146


def test_params_take_only_the_dimension_and_derive_every_other_field():
    assert [f.name for f in dataclasses.fields(CmaParams)] == [
        "dimension",
        "lambda_",
        "mu",
        "weights",
        "mu_eff",
        "c_sigma",
        "d_sigma",
        "c_c",
        "c_1",
        "c_mu",
        "chi_n",
        "max_iter",
    ]
    assert list(inspect.signature(CmaParams).parameters) == ["dimension"]
    params = CmaParams(3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'max_iter'"):
        CmaParams(3, max_iter=5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'max_iter'"):
        dataclasses.replace(params, max_iter=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.max_iter = 5
    with pytest.raises(ValueError, match="read-only"):
        params.weights[0] = 1.0


def test_params_are_built_once_per_dimension_and_shared():
    params = CmaParams(4)
    assert CmaParams(np.int64(4)) is params and type(params.dimension) is int
    assert copy.copy(params) is copy.deepcopy(params) is pickle.loads(pickle.dumps(params)) is params
    assert CmaParams(5) is not params
    # a state's params are its box's: no other pair can be built
    assert init_cma(np.zeros(4), 0, Box.cube(4)).params is params


@pytest.mark.parametrize(
    "function, names",
    [
        (init_cma, ["mean", "seed", "box"]),
        (ask_clear, ["state", "n", "centers", "d_min", "cap"]),
        (ask, ["state", "n"]),
        (ask_one, ["state"]),
    ],
)
def test_state_builder_and_samplers_take_every_argument_with_no_default(function, names):
    parameters = inspect.signature(function).parameters
    assert list(parameters) == names
    assert all(p.default is inspect.Parameter.empty for p in parameters.values())


def test_weights_d10_frozen():
    p = CmaParams(10)
    expected = [
        0.45627264690340597,
        0.2707530970017852,
        0.16223111715866978,
        0.08523354710016448,
        0.025509591835974777,
    ]
    assert np.allclose(p.weights, expected, rtol=0, atol=1e-15)
    assert p.mu_eff == pytest.approx(3.1672992814107017, rel=1e-14)


def test_weights_are_positive_decreasing_normalized():
    for dim in (2, 3, 7, 10):
        w = CmaParams(dim).weights
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)
        assert float(w.sum()) == pytest.approx(1.0, rel=1e-14)


def test_learning_rates_frozen():
    p10 = CmaParams(10)
    assert p10.c_sigma == pytest.approx(0.28442858794636744, rel=1e-14)
    assert p10.d_sigma == pytest.approx(1.2844285879463675, rel=1e-14)
    assert p10.c_c == pytest.approx(0.29499038303562225, rel=1e-14)
    assert p10.c_1 == pytest.approx(0.015283824524751714, rel=1e-14)
    assert p10.c_mu == pytest.approx(0.02015428276120837, rel=1e-14)
    p2 = CmaParams(2)
    assert p2.c_sigma == pytest.approx(0.44620498737831715, rel=1e-14)
    assert p2.c_c == pytest.approx(0.6245545390268264, rel=1e-14)
    assert p2.c_1 == pytest.approx(0.1548153998964136, rel=1e-14)
    assert p2.c_mu == pytest.approx(0.057859085071916304, rel=1e-14)


def test_expected_norm_constant_frozen():
    for dim, chi_n in ((10, 3.0847265651690123), (2, 1.254272742818995)):
        assert CmaParams(dim).chi_n == pytest.approx(chi_n, rel=1e-14)


def test_initial_state_layout():
    st = init_cma(np.full(4, 0.5), 3, Box.cube(4))
    assert st.sigma == 1.0
    assert np.array_equal(st.cov, np.eye(4))
    assert np.array_equal(st.p_sigma, np.zeros(4))
    assert np.array_equal(st.p_c, np.zeros(4))
    assert st.iteration == 0
    assert st.stop_reason is None
    assert should_stop(st) is None


def test_init_rejects_bad_means():
    with pytest.raises(InvalidMean):
        init_cma(np.array([0.0, 0.0, 6.0]), 0, Box.cube(3))
    with pytest.raises(InvalidMean):
        init_cma(np.zeros(4), 0, Box.cube(3))


def test_init_refuses_a_mean_of_another_dimension_than_the_box():
    # the state's D is the box's D: a 3-D mean in a 2-D box, which would
    # fail only at the first ask, is refused when the state is built
    with pytest.raises(InvalidMean, match=r"^mean must have shape \(2,\), got \(3,\)$"):
        init_cma(np.zeros(3), 0, Box.cube(2))


def test_ask_with_vanishing_sigma_returns_the_mean():
    box = Box.cube(2)
    st = init_cma(np.array([1.0, -2.0]), 0, box)
    st.sigma = 1e-300
    x = ask_one(st)
    assert np.all(np.abs(x - st.mean) < 1e-200)


def test_ask_moments_match_a_standard_normal():
    box = Box.cube(2)
    st = init_cma(np.zeros(2), 8, box)
    draws = np.asarray([ask_one(st) for _ in range(10_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.04)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.1)


def test_a_state_samples_in_the_box_it_was_built_with():
    # sigma 1 overshoots this box on most draws, so every sampler must read it
    box = Box.cube(3, -0.1, 0.1)
    st = init_cma(np.zeros(3), 0, box)
    assert st.box is box
    xs = np.vstack([ask(st, 20), ask_clear(st, 20, np.empty((0, 3)), 0.0, 20)[0], ask_one(st)])
    assert all(box.contains(x) for x in xs)


def test_ask_from_corner_mean_stays_in_box():
    box = Box.cube(3)
    st = init_cma(np.full(3, 5.0), 0, box)
    for _ in range(200):
        assert box.contains(ask_one(st))


def twin_states(mean, box, sigma0=1.0, seed=3):
    states = [init_cma(np.asarray(mean, float), seed, box) for _ in range(2)]
    for state in states:
        state.sigma = sigma0
    return states


@pytest.mark.parametrize(
    "dim, width, where, sigma0, sizes",
    [
        (2, 10.0, "center", 1.0, [1, 1, 1]),  # n = 1
        (3, 10.0, "center", 1.0, [25, 1, 40]),  # n > lambda = 7
        (10, 10.0, "center", 3.0, [10, 37, 100]),  # some draws leave the box
        (4, 10.0, "corner", 2.0, [9, 30]),  # most draws leave the box
        (2, 0.1, "center", 0.5, [30, 20]),  # about half the candidates are clipped
        (2, 1e-3, "corner", 1e4, [1, 15, 3]),  # every candidate is clipped
    ],
)
def test_block_ask_equals_one_candidate_draws(dim, width, where, sigma0, sizes):
    box = Box.cube(dim, -width / 2, width / 2)
    mean = np.zeros(dim) if where == "center" else box.upper
    block, single = twin_states(mean, box, sigma0)
    reference, _ = twin_states(mean, box, sigma0)
    clipped = []
    for n in sizes:
        xs = ask(block, n)
        assert xs.shape == (n, dim)
        assert np.array_equal(xs, np.array([ask_one(single) for _ in range(n)]))
        assert np.array_equal(xs, np.array([reference_ask_one(reference) for _ in range(n)]))
        assert all(box.contains(x) for x in xs)
        # clipped rows sit on a box face
        clipped += list(((xs == box.lower) | (xs == box.upper)).any(axis=1))
        assert len(block.z_spare) <= _MAX_BLOCK_ROWS
    assert same_stream_position(reference, block, single)
    if width < 1.0:
        assert any(clipped)
    if width < 0.01:
        assert all(clipped)
    if width == 0.1:
        assert not all(clipped)


def test_block_ask_keeps_unused_draws_for_the_next_call():
    # mean on a corner: about 15/16 of the draws leave the box in 4-D, so
    # blocks are overdrawn and the surplus kept as spare normals
    box = Box.cube(4)
    block, reference = twin_states(np.full(4, 5.0), box, 2.0)
    spares = []
    for n in (1, 2, 3, 5, 8, 13):
        assert np.array_equal(
            ask(block, n), np.array([reference_ask_one(reference) for _ in range(n)])
        )
        assert same_stream_position(block, reference)
        spares.append(len(block.z_spare))
    assert any(spares)


@st.composite
def sampler_calls(draw):
    """(dim, box, mean, sigma0, seed, centers, d_min, [(room, cap)] * 3).

    Narrow boxes with a large sigma0 clip most candidates onto a face or a
    corner; centers there, or anywhere in the box, then reject some of them.
    """
    # D=40 is the dimension of the loose benchmark grid
    dim = draw(st.sampled_from([*range(1, 13), 40]))
    width = draw(st.sampled_from([10.0, 1.0, 0.1, 1e-3]))
    box = Box.cube(dim, -width / 2, width / 2)
    mean = np.zeros(dim) if draw(st.booleans()) else box.upper.copy()
    sigma0 = draw(st.sampled_from([0.5, 1.0, 3.0, 1e4]))
    seed = draw(st.integers(0, 2**16))
    # each center coordinate on a face, at 0 or uniform in the box
    rng, shape = np.random.default_rng(seed), (draw(st.integers(0, 4)), dim)
    centers = np.where(
        rng.random(shape) < 0.5,
        rng.choice([-width / 2, 0.0, width / 2], shape),
        rng.uniform(-width / 2, width / 2, shape),
    )
    d_min = draw(
        st.one_of(
            st.sampled_from([0.0, width / 4, box.diameter]),
            st.floats(0.0, 1.5 * box.diameter),
        )
    )
    # a cap in the hundreds costs the reference loop up to 100 draws per rejection
    caps = st.one_of(st.integers(1, 30), st.integers(1, 300))
    calls = [(draw(st.integers(1, 30)), draw(caps)) for _ in range(3)]
    return dim, box, mean, sigma0, seed, centers, d_min, calls


@seed(0)
@settings(max_examples=100, deadline=None, database=None)
@given(sampler_calls())
def test_ask_clear_equals_the_one_candidate_loop(call):
    dim, box, mean, sigma0, seed, centers, d_min, calls = call
    block, reference = twin_states(mean, box, sigma0, seed)
    for room, cap in calls:
        xs, rejected = ask_clear(block, room, centers, d_min, cap)
        expected, expected_rejected = reference_ask_clear(reference, room, centers, d_min, cap)
        assert xs.shape == expected.shape
        assert xs.tobytes() == expected.tobytes()
        assert rejected == expected_rejected
        assert len(block.z_spare) <= _MAX_BLOCK_ROWS
        assert same_stream_position(block, reference)


def test_ask_clear_rejects_clipped_candidates_inside_a_tabu_ball():
    # every candidate is clipped onto a corner of the box, and each corner
    # is the center of a tabu ball: the cap ends the call with nothing clear
    box = Box.cube(2, -5e-4, 5e-4)
    block, reference = twin_states(box.upper, box, 1e4)
    corners = np.array([[a, b] for a in (-5e-4, 5e-4) for b in (-5e-4, 5e-4)])
    xs, rejected = ask_clear(block, 5, corners, 1e-4, 7)
    assert xs.shape == (0, 2) and rejected == 7
    assert reference_ask_clear(reference, 5, corners, 1e-4, 7)[1] == 7
    assert same_stream_position(block, reference)


@pytest.mark.parametrize("with_centers", [True, False])
def test_ask_clear_on_in_box_blocks_equals_the_one_candidate_loop(with_centers):
    # a box far wider than the distribution: every draw is inside it, so
    # every draw is a candidate and none is clipped
    box = big_box(10)
    block, reference = twin_states(np.zeros(10), box)
    # chi_10 is about 3.08: about half the draws fall within 3 of the mean
    centers = np.zeros((1, 10)) if with_centers else np.empty((0, 10))
    total = 0
    for room, cap in [(10, 100), (1, 100), (25, 3), (10, 10)]:
        xs, rejected = ask_clear(block, room, centers, 3.0, cap)
        expected, expected_rejected = reference_ask_clear(reference, room, centers, 3.0, cap)
        assert xs.shape == expected.shape
        assert xs.tobytes() == expected.tobytes()
        assert rejected == expected_rejected
        assert same_stream_position(block, reference)
        total += rejected
    assert total > 0 if with_centers else total == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_centers", [True, False])
def test_ask_clear_carries_miss_runs_across_short_blocks(seed, with_centers):
    # about 1 draw in 100 is in the box, so a run of 100 misses, whose last
    # draw is clipped, spans several blocks: a call for 1 to 3 candidates
    # opens with a block of at most 1.5 * 3 * 8 = 36 rows
    box = Box.cube(2, -0.05, 0.05)
    block, reference = twin_states(np.zeros(2), box, 0.4, seed)
    centers = np.array([[0.0, 0.0], [0.05, 0.05]]) if with_centers else np.empty((0, 2))
    clipped = 0
    for i in range(40):
        room, cap = 1 + i % 3, (1, 2, 50, 1)[i % 4]
        xs, rejected = ask_clear(block, room, centers, 0.03, cap)
        expected, expected_rejected = reference_ask_clear(reference, room, centers, 0.03, cap)
        assert xs.tobytes() == expected.tobytes()
        assert rejected == expected_rejected
        assert same_stream_position(block, reference)
        clipped += int(((xs == box.lower) | (xs == box.upper)).any(axis=1).sum())
    assert clipped


@seed(0)
@settings(max_examples=60, deadline=None, database=None)
@given(sampler_calls(), st.lists(st.sampled_from(["one", "clear"]), min_size=2, max_size=8))
def test_ask_one_interleaved_with_ask_clear_equals_the_one_candidate_loop(call, kinds):
    dim, box, mean, sigma0, seed, centers, d_min, calls = call
    block, reference = twin_states(mean, box, sigma0, seed)
    for i, kind in enumerate(kinds):
        if kind == "one":
            assert ask_one(block).tobytes() == reference_ask_one(reference).tobytes()
        else:
            room, cap = calls[i % len(calls)]
            xs, rejected = ask_clear(block, room, centers, d_min, cap)
            expected, expected_rejected = reference_ask_clear(reference, room, centers, d_min, cap)
            assert xs.tobytes() == expected.tobytes()
            assert rejected == expected_rejected
        assert same_stream_position(block, reference)


@pytest.mark.parametrize(
    "dim, width, where, sigma0, d_min",
    [
        (3, 10.0, "center", 1.0, 1.0),  # few draws leave the box, some are rejected
        (4, 10.0, "corner", 2.0, 2.0),  # most draws leave the box
        (10, 10.0, "center", 3.0, 4.0),  # some draws leave the box, many are rejected
    ],
)
def test_a_deep_copy_taken_mid_run_continues_bit_identically(dim, width, where, sigma0, d_min):
    box = Box.cube(dim, -width / 2, width / 2)
    mean = np.zeros(dim) if where == "center" else box.upper
    state, _ = twin_states(mean, box, sigma0)
    lam = state.params.lambda_
    centers = np.array([np.zeros(dim), np.full(dim, width / 4)])

    def step(st):
        xs, rejected = ask_clear(st, lam, centers, d_min, 100 * lam)
        if len(xs) >= st.params.mu:
            tell(st, xs, np.add.reduce(xs * xs, axis=1))
        return xs.tobytes(), rejected

    for _ in range(3):
        step(state)
    assert len(state.z_spare) and state.stop_reason is None
    twin = copy.deepcopy(state)
    assert state_bits(twin) == state_bits(state)
    for _ in range(6):
        if state.stop_reason is not None:
            break
        assert step(twin) == step(state)
        assert state_bits(twin) == state_bits(state)


def test_ask_after_stop_raises():
    box = Box.cube(2)
    st = init_cma(np.zeros(2), 0, box)
    xs = np.array([ask_one(st) for _ in range(6)])
    tell(st, xs, np.ones(6))  # zero fitness range trips the function tolerance
    assert st.stop_reason is not None
    with pytest.raises(AlreadyStopped):
        ask_one(st)


def test_ask_does_not_mutate_the_distribution():
    box = Box.cube(3)
    st = init_cma(np.zeros(3), 1, box)
    mean, sigma, cov = st.mean.copy(), st.sigma, st.cov.copy()
    for _ in range(50):
        ask_one(st)
    assert np.array_equal(st.mean, mean)
    assert st.sigma == sigma
    assert np.array_equal(st.cov, cov)


def test_tell_keeps_mean_when_population_sits_on_it():
    st = init_cma(np.array([0.5, -0.25, 1.0]), 0, Box.cube(3))
    tell(st, np.tile(st.mean, (7, 1)), np.ones(7))
    assert np.allclose(st.mean, [0.5, -0.25, 1.0], rtol=0, atol=1e-12)
    assert st.iteration == 1


def test_tell_population_size_limits():
    box = Box.cube(10)
    st = init_cma(np.zeros(10), 0, box)
    xs = np.array([ask_one(st) for _ in range(11)])
    with pytest.raises(InsufficientPopulation):
        tell(st, np.tile(xs[0], (4, 1)), np.zeros(4))  # mu is 5
    with pytest.raises(ValueError):
        tell(st, xs, np.zeros(11))  # lambda is 10


def test_tell_rejects_candidates_of_the_wrong_shape():
    box = Box.cube(10)
    st = init_cma(np.zeros(10), 0, box)
    xs = ask(st, 7)
    with pytest.raises(ValueError, match=r"^xs must have shape \(7, 10\), got \(7, 9\)$"):
        tell(st, xs[:, :9], np.zeros(7))
    with pytest.raises(ValueError, match=r"^xs must have shape \(7, 10\), got \(70,\)$"):
        tell(st, xs.ravel(), np.zeros(7))
    assert st.iteration == 0 and st.stop_reason is None


def test_a_failing_eigh_stops_as_degenerate_and_keeps_the_last_eigensystem(monkeypatch):
    box = Box.cube(3)
    st = init_cma(np.zeros(3), 0, box)
    for _ in range(2):
        xs = ask(st, st.params.lambda_)
        tell(st, xs, (xs**2).sum(axis=1))
    assert st.stop_reason is None
    vectors, scale = st.eig_vectors.copy(), st.eig_scale.copy()
    assert not np.array_equal(vectors, np.eye(3))

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    xs = ask(st, st.params.lambda_)
    tell(st, xs, (xs**2).sum(axis=1))
    assert st.stop_reason == "degenerate"
    assert st.iteration == 3
    assert st.eig_vectors.tobytes() == vectors.tobytes()
    assert st.eig_scale.tobytes() == scale.tobytes()


def test_tell_accepts_partial_populations():
    box = Box.cube(10)
    st = init_cma(np.zeros(10), 0, box)
    xs = np.array([ask_one(st) for _ in range(7)])
    tell(st, xs, np.arange(7.0))
    assert st.iteration == 1


def state_bits(state):
    """Every field of a ``CmaState``, floats as their IEEE bytes."""

    def bits(value):
        return None if value is None else struct.pack("<d", value)

    arrays = (state.mean, state.cov, state.p_sigma, state.p_c, state.eig_vectors, state.eig_scale)
    history = (state.hist_best, state.stagn_best, state.stagn_median)
    return (
        [(a.shape, a.tobytes()) for a in arrays],
        bits(state.sigma),
        state.iteration,
        state.stop_reason,
        bits(state.last_range),
        [(h.maxlen, [bits(v) for v in h]) for h in history],
        state.rng.bit_generator.state,
        (state.z_spare.shape, state.z_spare.tobytes()),
        bits(state.draws_per_clear),
    )


# +inf is added to the pool by ``tell_inputs``, and NaN too in the "nan" mode
FITNESS_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -np.inf, 1e300, -1e300, 5e-324, 1.7976931348623157e308]


@st.composite
def tell_runs(draw):
    """(dim, start, constants, seed, [(n, xs mode, fs mode)] * 1..12).

    The xs modes sample around the mean or tie rows; at most one step
    blows the covariance up to inf or holds an infinite row, which makes
    the state degenerate.  The fs modes are normal values at magnitudes up
    to 1e300, values from a pool of signed zeros, infinities, extremes and
    subnormals (with +inf, or with +inf and NaN), signed zeros alone,
    one value for every row, or rows whose best never moves; one mode per
    step or for the whole run.  A ``start`` iteration 5 short of
    ``max_iter`` or a patched ``cma`` tolerance in ``constants`` lets each
    stop test fire within a few tells.
    """
    dim = draw(st.integers(1, 12))
    params = CmaParams(dim)
    start, constants = draw(
        st.sampled_from(
            [(0, {}), (0, {"TOL_X": 1e9}), (params.max_iter - 5, {})]
            + [(0, {"TOL_STAGNATION": 1}), (0, {"TOL_STAGNATION": 3})]
        )
    )
    seed = draw(st.integers(0, 2**16))
    fs_modes = st.sampled_from(["normal", "pool", "nan", "zeros", "tied", "flat"])
    # one fs mode for the whole run, or one per step
    fs_modes = st.just(draw(fs_modes)) if draw(st.booleans()) else fs_modes
    sizes, xs_modes = st.integers(params.mu, params.lambda_), st.sampled_from(["sample", "tied"])
    steps = [
        [draw(sizes), draw(xs_modes), draw(fs_modes)] for _ in range(draw(st.integers(1, 12)))
    ]
    broken = draw(st.sampled_from([None, None, "huge", "inf"]))
    if broken:
        steps[draw(st.integers(0, len(steps) - 1))][1] = broken
    return dim, start, constants, seed, steps


def tell_inputs(rng, state, n, xs_mode, fs_mode):
    dim = state.params.dimension
    xs = state.mean + state.sigma * rng.standard_normal((n, dim))
    if xs_mode == "tied":
        xs = xs[rng.integers(0, 2, n)]
    elif xs_mode == "huge":
        xs = xs * 1e200
    elif xs_mode == "inf":
        xs[rng.integers(n)] = np.inf
    if fs_mode == "normal":
        fs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301)
    elif fs_mode == "tied":
        fs = np.full(n, rng.choice(FITNESS_POOL + [np.inf]))
    elif fs_mode == "zeros":
        fs = rng.choice([0.0, -0.0], n)
    elif fs_mode == "flat":
        fs = 5.0 + rng.permutation(np.arange(n) % 3)
    else:
        fs = rng.choice(FITNESS_POOL + [np.inf] + ([np.nan] if fs_mode == "nan" else []), n)
    return xs, fs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(tell_runs())
def test_tell_equals_the_reference_update_bit_for_bit(run):
    dim, start, constants, seed, steps = run
    # hypothesis refuses function-scoped fixtures such as ``monkeypatch``
    with patch.multiple(cma, **constants) if constants else nullcontext():
        lean, reference = (init_cma(np.zeros(dim), seed, Box.cube(dim)) for _ in range(2))
        lean.iteration = reference.iteration = start
        rng = np.random.default_rng(seed)
        for n, xs_mode, fs_mode in steps:
            xs, fs = tell_inputs(rng, lean, n, xs_mode, fs_mode)
            tell(lean, xs.copy(), fs.copy())
            # ``tell`` ranks NaN as +inf, ties broken by row: the oracle
            # gets the rows in that order and NaN put to +inf
            keys = fitness_keys(fs)
            order = np.argsort(keys, kind="stable")
            reference_tell(reference, xs[order], keys[order])
            assert state_bits(lean) == state_bits(reference)


def test_tell_picks_the_fitness_key_best_parents_among_inf_and_nan_rows():
    st = init_cma(np.zeros(2), 0, Box.cube(2))
    assert st.params.mu == 3
    xs = np.arange(12.0).reshape(6, 2) / 10.0
    # the ``fitness_keys`` order: rows 2 and 5, then NaN tied with +inf and
    # the tie broken by row: 0, 1, 3, 4 (argsort would put 1 and 4 first)
    fs = np.array([np.nan, np.inf, 1.0, np.nan, np.inf, 2.0])
    tell(st, xs, fs)
    assert st.mean.tobytes() == (st.params.weights @ xs[[2, 5, 0]]).tobytes()
    assert st.mean.tobytes() != (st.params.weights @ xs[[2, 5, 1]]).tobytes()


def test_sphere_converges_to_high_precision():
    hits = 0
    for seed in range(5):
        fn = make_function("sphere", 5, 0)
        st = init_cma(np.zeros(5), seed, fn.box)
        best = np.inf
        for _ in range(2000 // st.params.lambda_):
            xs = np.array([ask_one(st) for _ in range(st.params.lambda_)])
            fs = np.array([fn.evaluate(x) for x in xs])
            tell(st, xs, fs)
            best = min(best, fs.min())
            if st.stop_reason is not None:
                break
        hits += fn.loss(best) < 1e-8
    assert hits >= 4


def test_mean_drifts_up_a_linear_slope():
    box = big_box(2)
    st = init_cma(np.zeros(2), 1, box)
    means = [st.mean[0]]
    for _ in range(20):
        xs = np.array([ask_one(st) for _ in range(st.params.lambda_)])
        tell(st, xs, -xs[:, 0])
        means.append(st.mean[0])
    assert np.all(np.diff(means) > 0)


def test_translation_invariance_on_a_quadratic():
    box = big_box(3)

    def run(center, start, seed):
        st = init_cma(start, seed, box)
        losses = []
        for _ in range(15):
            xs = np.array([ask_one(st) for _ in range(st.params.lambda_)])
            fs = np.array([float(np.sum((x - center) ** 2)) for x in xs])
            tell(st, xs, fs)
            losses.extend(fs)
            if st.stop_reason is not None:
                break
        return np.asarray(losses)

    shift = np.array([0.37, -1.2, 2.05])
    base = run(np.zeros(3), np.ones(3), seed=5)
    moved = run(shift, np.ones(3) + shift, seed=5)
    assert base.shape == moved.shape
    assert np.allclose(base, moved, rtol=1e-9, atol=1e-12)


def test_identical_seeds_evolve_bitwise_identically():
    fn = make_function("rastrigin_sep", 3, 0)

    def trace(seed):
        st = init_cma(np.zeros(3), seed, fn.box)
        rows = []
        for _ in range(30):
            xs = np.array([ask_one(st) for _ in range(st.params.lambda_)])
            tell(st, xs, np.array([fn.evaluate(x) for x in xs]))
            rows.append((st.mean.copy(), st.sigma, st.cov.copy()))
            if st.stop_reason is not None:
                break
        return rows

    for (m1, s1, c1), (m2, s2, c2) in zip(trace(42), trace(42)):
        assert np.array_equal(m1, m2)
        assert s1 == s2
        assert np.array_equal(c1, c2)


def test_covariance_stays_symmetric_positive_definite():
    fn = make_function("rosenbrock", 4, 1)
    st = init_cma(np.zeros(4), 2, fn.box)
    for _ in range(50):
        xs = np.array([ask_one(st) for _ in range(st.params.lambda_)])
        tell(st, xs, np.array([fn.evaluate(x) for x in xs]))
        assert np.array_equal(st.cov, st.cov.T)
        assert np.linalg.eigvalsh(st.cov)[0] > 0
        if st.stop_reason is not None:
            break


def test_stop_reason_tolfun_on_flat_fitness():
    box = Box.cube(2)
    st = init_cma(np.zeros(2), 0, box)
    xs = np.array([ask_one(st) for _ in range(6)])
    tell(st, xs, np.full(6, 7.0))
    assert st.stop_reason == "tolfun"


def test_stop_reason_tolx_with_a_loose_threshold(monkeypatch):
    monkeypatch.setattr(cma, "TOL_X", 1e9)
    box = Box.cube(2)
    st = init_cma(np.zeros(2), 0, box)
    xs = np.array([ask_one(st) for _ in range(6)])
    tell(st, xs, np.array([float(np.sum(x * x)) for x in xs]))
    assert st.stop_reason == "tolx"


def test_stop_reason_tolfunhist_on_repeating_best():
    # per-generation spread stays 2.0 but the best value never moves, so
    # only the history criterion can fire, at the 10th entry
    box = Box.cube(2)
    st = init_cma(np.zeros(2), 0, box)
    for gen in range(10):
        xs = np.array([ask_one(st) for _ in range(6)])
        tell(st, xs, 5.0 + np.arange(6) % 3)
        if gen < 9:
            assert st.stop_reason is None
    assert st.stop_reason == "tolfunhist"


@pytest.mark.parametrize("at", [0, 4])
def test_an_all_nan_generation_holds_tolfunhist_back_as_an_all_inf_one_does(at):
    # the best value never moves, so tolfunhist fires when the odd
    # generation leaves the 20-entry history, whether it came first or later
    box = Box.cube(2)
    ends = []
    for odd in (np.nan, np.inf):
        st = init_cma(np.zeros(2), 0, box)
        assert st.hist_best.maxlen == 20
        tells = 0
        while st.stop_reason is None:
            xs = np.array([ask_one(st) for _ in range(6)])
            tell(st, xs, np.full(6, odd) if tells == at else 5.0 + np.arange(6) % 3)
            tells += 1
        ends.append((tells, st.stop_reason, st.mean.tobytes(), st.sigma))
    assert ends[0] == ends[1]
    assert ends[0][:2] == (at + 21, "tolfunhist")


def test_stop_reason_stagnation_with_a_short_window(monkeypatch):
    monkeypatch.setattr(cma, "TOL_STAGNATION", 3)
    st = init_cma(np.zeros(2), 0, Box.cube(2))
    anchor = st.mean.copy()
    for gen in range(6):
        tell(st, np.tile(anchor, (6, 1)), 5.0 + np.arange(6) % 3)
        if gen < 5:
            assert st.stop_reason is None
    assert st.stop_reason == "tolstagnation"


@pytest.mark.parametrize("at", [0, 2])
def test_a_nan_median_lets_tolstagnation_fire_as_an_all_inf_generation_does(monkeypatch, at):
    # one generation's middle values are -inf and +inf, so its median is
    # NaN as ``np.median`` gives it; ranked as +inf it no longer blocks the
    # stagnation test, which fires when an all-+inf generation lets it
    monkeypatch.setattr(cma, "TOL_STAGNATION", 3)
    odd = np.array([-np.inf] * 3 + [np.inf] * 3)
    ends = []
    for fs in (odd, np.full(6, np.inf)):
        st = init_cma(np.zeros(2), 0, Box.cube(2))
        anchor = st.mean.copy()
        tells = 0
        while st.stop_reason is None:
            tell(st, np.tile(anchor, (6, 1)), fs if tells == at else 5.0 + np.arange(6) % 3)
            tells += 1
        ends.append((tells, st.stop_reason, list(st.stagn_median)))
    assert ends[0] == ends[1]
    assert ends[0][:2] == (6, "tolstagnation")


def test_stop_reason_maxiter():
    fn = make_function("rastrigin_sep", 2, 0)
    st = init_cma(np.zeros(2), 0, fn.box)
    # three generations short of max_iter = 1000 D^2
    st.iteration = st.params.max_iter - 3
    for _ in range(3):
        assert st.stop_reason is None
        xs = np.array([ask_one(st) for _ in range(6)])
        tell(st, xs, np.array([fn.evaluate(x) for x in xs]))
    assert st.iteration == 4000 and st.stop_reason == "maxiter"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stop_reason_degenerate_on_nonfinite_population():
    st = init_cma(np.zeros(2), 0, Box.cube(2))
    tell(st, np.full((6, 2), np.inf), np.arange(6.0))
    assert st.stop_reason == "degenerate"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stop_reason_tolfun_ranks_before_degenerate():
    # the same non-finite population, with equal fitness values: degenerate
    # is the last criterion, so tolfun fires
    st = init_cma(np.zeros(2), 0, Box.cube(2))
    tell(st, np.full((6, 2), np.inf), np.full(6, 7.0))
    assert st.stop_reason == "tolfun"


@pytest.mark.parametrize("function", ["flat", "sphere"])
@pytest.mark.parametrize("algorithm", ["ds", "cma"])
def test_only_a_tell_that_leaves_the_state_running_decomposes(monkeypatch, function, algorithm):
    # flat stops every generation by tolfun, sphere runs on; both runs tell
    # through their module's ``tell`` name, and ``tell`` reaches ``eigh``
    # through ``np.linalg``
    fn = FlatFunction(3) if function == "flat" else make_function("sphere", 3, 0)
    counts = {"running": 0, "stopped": 0, "eigh": 0}
    eigh = np.linalg.eigh

    def counted_eigh(a):
        counts["eigh"] += 1
        return eigh(a)

    def counted_tell(state, xs, fs):
        tell(state, xs, fs)
        counts["stopped" if state.stop_reason else "running"] += 1

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(cascade if algorithm == "ds" else baselines, "tell", counted_tell)
    if algorithm == "ds":
        cascade.run_ds(DsConfig(k=2, d_min=0.5, budget=300), fn)
    else:
        baselines.run_cma_single(fn, 300, 0)
    assert counts["eigh"] == counts["running"]
    if function == "flat":
        assert counts["running"] == 0 and counts["stopped"] > 1
    else:
        assert counts["running"] > 10
