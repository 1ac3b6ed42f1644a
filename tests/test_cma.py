"""CMA-ES core tests.

Strategy constants for D=10 and D=2 are frozen from the standard
closed-form parameterization, the sampler is checked against Monte-Carlo
moments, and each stopping criterion is driven through the public
ask/tell interface.
"""

from __future__ import annotations

import numpy as np
import pytest

from cascade_checks import reference_ask_one
from divbatch import (
    AlreadyStopped,
    Box,
    CmaParams,
    InsufficientPopulation,
    InvalidMean,
    ask,
    ask_one,
    init_cma,
    make_function,
    should_stop,
    tell,
)

BIG = 1e9


def big_box(dim):
    return Box(np.full(dim, -BIG), np.full(dim, BIG))


def drive(state, objective, generations, box=None):
    """Run plain ask/tell generations, returning all (x, f) pairs."""
    history = []
    for _ in range(generations):
        pop = []
        for _ in range(state.params.lambda_):
            x = ask_one(state, box)
            pop.append((x, float(objective(x))))
        tell(state, pop)
        history.extend(pop)
        if state.stop_reason is not None:
            break
    return history


def test_population_sizes_follow_the_log_rule():
    assert CmaParams.defaults(10).lambda_ == 10
    assert CmaParams.defaults(10).mu == 5
    assert CmaParams.defaults(2).lambda_ == 6
    assert CmaParams.defaults(2).mu == 3
    assert CmaParams.defaults(5).lambda_ == 8
    assert CmaParams.defaults(5).mu == 4


@pytest.mark.parametrize("dim", [2, 5, 10])
def test_stop_tolerances_are_pinned(dim):
    p = CmaParams.defaults(dim)
    assert p.tol_x == 1e-11
    assert p.tol_fun == 1e-11
    assert p.tol_fun_hist == 1e-12
    assert p.tol_fun_rel == 0.0
    assert p.tol_stagnation == 146
    assert p.max_iter == 1000 * dim**2


def test_weights_d10_frozen():
    p = CmaParams.defaults(10)
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
        w = CmaParams.defaults(dim).weights
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)
        assert float(w.sum()) == pytest.approx(1.0, rel=1e-14)


def test_learning_rates_frozen():
    p10 = CmaParams.defaults(10)
    assert p10.c_sigma == pytest.approx(0.28442858794636744, rel=1e-14)
    assert p10.d_sigma == pytest.approx(1.2844285879463675, rel=1e-14)
    assert p10.c_c == pytest.approx(0.29499038303562225, rel=1e-14)
    assert p10.c_1 == pytest.approx(0.015283824524751714, rel=1e-14)
    assert p10.c_mu == pytest.approx(0.02015428276120837, rel=1e-14)
    p2 = CmaParams.defaults(2)
    assert p2.c_sigma == pytest.approx(0.44620498737831715, rel=1e-14)
    assert p2.c_c == pytest.approx(0.6245545390268264, rel=1e-14)
    assert p2.c_1 == pytest.approx(0.1548153998964136, rel=1e-14)
    assert p2.c_mu == pytest.approx(0.057859085071916304, rel=1e-14)


def test_expected_norm_constant_frozen():
    assert init_cma(10, np.zeros(10)).chi_n == pytest.approx(3.0847265651690123, rel=1e-14)
    assert init_cma(2, np.zeros(2)).chi_n == pytest.approx(1.254272742818995, rel=1e-14)


def test_initial_state_layout():
    st = init_cma(4, np.full(4, 0.5), seed=3)
    assert st.sigma == 1.0
    assert np.array_equal(st.cov, np.eye(4))
    assert np.array_equal(st.p_sigma, np.zeros(4))
    assert np.array_equal(st.p_c, np.zeros(4))
    assert st.iteration == 0
    assert st.stop_reason is None
    assert should_stop(st) is None


def test_init_rejects_bad_means():
    with pytest.raises(InvalidMean):
        init_cma(3, np.array([0.0, 0.0, 6.0]))
    with pytest.raises(InvalidMean):
        init_cma(3, np.zeros(4))


def test_ask_with_vanishing_sigma_returns_the_mean():
    st = init_cma(2, np.array([1.0, -2.0]))
    st.sigma = 1e-300
    x = ask_one(st)
    assert np.all(np.abs(x - st.mean) < 1e-200)


def test_ask_moments_match_a_standard_normal():
    st = init_cma(2, np.zeros(2), seed=8)
    draws = np.asarray([ask_one(st) for _ in range(10_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.04)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.1)


def test_ask_from_corner_mean_stays_in_box():
    box = Box.cube(3)
    st = init_cma(3, np.full(3, 5.0), box=box, seed=0)
    for _ in range(200):
        assert box.contains(ask_one(st, box))


def twin_states(dim, mean, box, sigma0=1.0, seed=3):
    params = CmaParams.defaults(dim).with_overrides(sigma0=sigma0)
    return [init_cma(dim, np.asarray(mean, float), params, seed, box) for _ in range(2)]


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
    block, single = twin_states(dim, mean, box, sigma0)
    reference, _ = twin_states(dim, mean, box, sigma0)
    clipped = []
    for n in sizes:
        xs = ask(block, box, n)
        assert xs.shape == (n, dim)
        assert np.array_equal(xs, np.array([ask_one(single, box) for _ in range(n)]))
        assert np.array_equal(xs, np.array([reference_ask_one(reference, box) for _ in range(n)]))
        assert all(box.contains(x) for x in xs)
        # clipped rows sit on a box face
        clipped += list(((xs == box.lower) | (xs == box.upper)).any(axis=1))
    state = block.rng.bit_generator.state
    assert state == single.rng.bit_generator.state == reference.rng.bit_generator.state
    if width < 1.0:
        assert any(clipped)
    if width < 0.01:
        assert all(clipped)
    if width == 0.1:
        assert not all(clipped)


def test_block_ask_hands_back_unused_draws():
    # mean on a corner: about 15/16 of the draws leave the box in 4-D, so
    # blocks are overdrawn and the surplus returned to the rng
    box = Box.cube(4)
    block, reference = twin_states(4, np.full(4, 5.0), box, 2.0)
    for n in (1, 2, 3, 5, 8, 13):
        assert np.array_equal(
            ask(block, box, n), np.array([reference_ask_one(reference, box) for _ in range(n)])
        )
        assert block.rng.bit_generator.state == reference.rng.bit_generator.state


def test_ask_after_stop_raises():
    st = init_cma(2, np.zeros(2), seed=0)
    pop = [(ask_one(st), 1.0) for _ in range(6)]
    tell(st, pop)  # zero fitness range trips the function tolerance
    assert st.stop_reason is not None
    with pytest.raises(AlreadyStopped):
        ask_one(st)


def test_ask_does_not_mutate_the_distribution():
    st = init_cma(3, np.zeros(3), seed=1)
    mean, sigma, cov = st.mean.copy(), st.sigma, st.cov.copy()
    for _ in range(50):
        ask_one(st)
    assert np.array_equal(st.mean, mean)
    assert st.sigma == sigma
    assert np.array_equal(st.cov, cov)


def test_tell_keeps_mean_when_population_sits_on_it():
    st = init_cma(3, np.array([0.5, -0.25, 1.0]), seed=0)
    pop = [(st.mean.copy(), 1.0) for _ in range(7)]
    tell(st, pop)
    assert np.allclose(st.mean, [0.5, -0.25, 1.0], rtol=0, atol=1e-12)
    assert st.iteration == 1


def test_tell_population_size_limits():
    st = init_cma(10, np.zeros(10), seed=0)
    xs = [ask_one(st) for _ in range(11)]
    with pytest.raises(InsufficientPopulation):
        tell(st, [(xs[0], 0.0)] * 4)  # mu is 5
    with pytest.raises(ValueError):
        tell(st, [(x, 0.0) for x in xs])  # lambda is 10


def test_tell_accepts_partial_populations():
    st = init_cma(10, np.zeros(10), seed=0)
    pop = [(ask_one(st), float(i)) for i in range(7)]
    tell(st, pop)
    assert st.iteration == 1


def test_sphere_converges_to_high_precision():
    hits = 0
    for seed in range(5):
        fn = make_function("sphere", 5, 0)
        st = init_cma(5, np.zeros(5), seed=seed, box=fn.box)
        best = np.inf
        for _ in range(2000 // st.params.lambda_):
            pop = [(x := ask_one(st, fn.box), fn.evaluate(x)) for _ in range(st.params.lambda_)]
            tell(st, pop)
            best = min(best, min(f for _, f in pop))
            if st.stop_reason is not None:
                break
        hits += fn.loss(best) < 1e-8
    assert hits >= 4


def test_mean_drifts_up_a_linear_slope():
    box = big_box(2)
    st = init_cma(2, np.zeros(2), seed=1, box=box)
    means = [st.mean[0]]
    for _ in range(20):
        pop = [(x := ask_one(st, box), float(-x[0])) for _ in range(st.params.lambda_)]
        tell(st, pop)
        means.append(st.mean[0])
    assert np.all(np.diff(means) > 0)


def test_translation_invariance_on_a_quadratic():
    box = big_box(3)

    def run(center, start, seed):
        st = init_cma(3, start, seed=seed, box=box)
        losses = []
        for _ in range(15):
            pop = [
                (x := ask_one(st, box), float(np.sum((x - center) ** 2)))
                for _ in range(st.params.lambda_)
            ]
            tell(st, pop)
            losses.extend(f for _, f in pop)
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
        st = init_cma(3, np.zeros(3), seed=seed, box=fn.box)
        rows = []
        for _ in range(30):
            pop = [(x := ask_one(st, fn.box), fn.evaluate(x)) for _ in range(st.params.lambda_)]
            tell(st, pop)
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
    st = init_cma(4, np.zeros(4), seed=2, box=fn.box)
    for _ in range(50):
        pop = [(x := ask_one(st, fn.box), fn.evaluate(x)) for _ in range(st.params.lambda_)]
        tell(st, pop)
        assert np.array_equal(st.cov, st.cov.T)
        assert np.linalg.eigvalsh(st.cov)[0] > 0
        if st.stop_reason is not None:
            break


def test_stop_reason_tolfun_on_flat_fitness():
    st = init_cma(2, np.zeros(2), seed=0)
    pop = [(ask_one(st), 7.0) for _ in range(6)]
    tell(st, pop)
    assert st.stop_reason == "tolfun"


def test_stop_reason_tolx_with_a_loose_threshold():
    params = CmaParams.defaults(2).with_overrides(tol_x=1e9)
    st = init_cma(2, np.zeros(2), params=params, seed=0)
    pop = [(x := ask_one(st), float(np.sum(x * x))) for _ in range(6)]
    tell(st, pop)
    assert st.stop_reason == "tolx"


def test_stop_reason_tolfunhist_on_repeating_best():
    # per-generation spread stays 2.0 but the best value never moves, so
    # only the history criterion can fire, at the 10th entry
    st = init_cma(2, np.zeros(2), seed=0)
    for gen in range(10):
        xs = [ask_one(st) for _ in range(6)]
        pop = [(x, 5.0 + (i % 3)) for i, x in enumerate(xs)]
        tell(st, pop)
        if gen < 9:
            assert st.stop_reason is None
    assert st.stop_reason == "tolfunhist"


def test_stop_reason_stagnation_with_a_short_window():
    params = CmaParams.defaults(2).with_overrides(tol_stagnation=3)
    st = init_cma(2, np.zeros(2), params=params, seed=0)
    anchor = st.mean.copy()
    for gen in range(6):
        pop = [(anchor.copy(), 5.0 + (i % 3)) for i in range(6)]
        tell(st, pop)
        if gen < 5:
            assert st.stop_reason is None
    assert st.stop_reason == "tolstagnation"


def test_stop_reason_maxiter():
    params = CmaParams.defaults(2).with_overrides(max_iter=3)
    st = init_cma(2, np.zeros(2), params=params, seed=0)
    fn = make_function("rastrigin_sep", 2, 0)
    for _ in range(3):
        pop = [(x := ask_one(st, fn.box), fn.evaluate(x)) for _ in range(6)]
        tell(st, pop)
    assert st.stop_reason == "maxiter"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stop_reason_degenerate_on_nonfinite_population():
    st = init_cma(2, np.zeros(2), seed=0)
    bad = np.array([np.inf, np.inf])
    pop = [(bad.copy(), float(i)) for i in range(6)]
    tell(st, pop)
    assert st.stop_reason == "degenerate"


def test_overrides_do_not_touch_other_fields():
    p = CmaParams.defaults(5)
    q = p.with_overrides(max_iter=12)
    assert q.max_iter == 12
    assert q.lambda_ == p.lambda_
    assert np.array_equal(q.weights, p.weights)
