"""Tests of the Euclidean distance kernel: row invariance, broadcasting,
symmetry, empty and non-finite inputs, and accuracy."""

from __future__ import annotations

import math

import numpy as np

from divbatch.boxes import distances


def scaled_rows(rng, shape):
    """Uniform rows, each scaled by a power of ten from 1e-3 to 1e3."""
    return rng.uniform(-5, 5, size=shape) * 10.0 ** rng.integers(-3, 4, size=(*shape[:-1], 1))


def test_a_row_gives_the_same_bits_alone_and_inside_larger_arrays():
    # the exact selector's mask screen rechecks single pairs with the
    # kernel and relies on getting the bits of the whole-array call
    for dim in range(1, 65):
        rng = np.random.default_rng(dim)
        stacked = scaled_rows(rng, (3, 50, dim))
        y = rng.uniform(-5, 5, dim)
        in_stack = distances(stacked, y)
        assert in_stack.shape == (3, 50)
        for b in range(3):
            in_array = distances(stacked[b], y)
            assert in_array.tobytes() == in_stack[b].tobytes(), dim
            for i in range(50):
                alone = distances(stacked[b, i], y)
                assert alone.shape == ()
                assert alone.tobytes() == in_array[i].tobytes(), (dim, b, i)


def test_both_operands_broadcast_to_the_bits_of_one_pair():
    # the tabu filter tests candidate rows against every center at once
    counts = (1, 2, 3, 7, 8, 9, 16, 33)
    for dim in range(1, 65):
        rng = np.random.default_rng(100 + dim)
        for n, m in zip(counts, reversed(counts)):
            xc, centers = scaled_rows(rng, (n, dim)), scaled_rows(rng, (m, dim))
            pairs = distances(xc[:, None], centers)
            assert pairs.shape == (n, m)
            for i in range(n):
                for j in range(m):
                    one = distances(xc[i], centers[j])
                    assert one.tobytes() == pairs[i, j].tobytes(), (dim, n, m, i, j)


def test_distances_are_symmetric_to_the_bit():
    for dim in range(1, 65):
        rng = np.random.default_rng(200 + dim)
        a, b = scaled_rows(rng, (20, dim)), scaled_rows(rng, (20, dim))
        assert distances(a, b).tobytes() == distances(b, a).tobytes(), dim


def test_empty_inputs_give_empty_results():
    for dim in (1, 10, 40):
        assert distances(np.empty((0, dim)), np.zeros(dim)).shape == (0,)
        assert distances(np.empty((0, 1, dim)), np.zeros((3, dim))).shape == (0, 3)


def test_non_finite_inputs_give_nan_or_inf():
    inf = math.inf
    # inf - inf is NaN, which never meets the closed inequality
    with np.errstate(invalid="ignore"):
        d = distances(np.array([[inf, 0.0], [0.0, 0.0]]), np.array([inf, 0.0]))
    assert math.isnan(d[0]) and not d[0] >= 0.0
    assert d[1] == inf
    d = distances(np.array([[math.nan, 0.0]]), np.zeros(2))
    assert math.isnan(d[0]) and not d[0] >= 0.0
    # a square that overflows and a difference that overflows both give +inf;
    # whether numpy warns on them is not part of the contract
    with np.errstate(over="ignore"):
        assert distances(np.array([1e200, 0.0]), np.zeros(2)) == inf
        assert distances(np.array([1e308, 0.0]), np.array([-1e308, 0.0])) == inf


def test_distances_are_within_four_ulp_of_math_dist():
    for dim in range(1, 65):
        rng = np.random.default_rng(300 + dim)
        xs, y = scaled_rows(rng, (200, dim)), rng.uniform(-5, 5, dim)
        for x, d in zip(xs, distances(xs, y)):
            exact = math.dist(x.tolist(), y.tolist())
            assert abs(float(d) - exact) <= 4 * math.ulp(exact), (dim, float(d), exact)
