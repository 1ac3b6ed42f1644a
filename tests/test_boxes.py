"""Tests of the Euclidean distance kernel's row invariance."""

from __future__ import annotations

import numpy as np

from divbatch.boxes import distances


def test_a_row_gives_the_same_bits_alone_and_inside_larger_arrays():
    # the exact selector's mask screen rechecks single pairs with the
    # kernel and relies on getting the bits of the whole-array call
    for dim in range(1, 65):
        rng = np.random.default_rng(dim)
        stacked = rng.uniform(-5, 5, size=(3, 50, dim)) * 10.0 ** rng.integers(-3, 4, size=(3, 50, 1))
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
