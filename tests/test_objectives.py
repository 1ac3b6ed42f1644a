"""Oracle and property tests for the seeded objective suite.

Hand-computed core values are frozen as literals; the optimum identity
``f(x_opt) == f_opt`` must hold exactly in floating point.
"""

from __future__ import annotations

import numpy as np
import pytest

from divbatch import (
    DimensionMismatch,
    InvalidDimension,
    UnknownFunction,
    function_ids,
    function_registry,
    make_function,
)

ALL_IDS = [
    "sphere",
    "ellipsoid",
    "rastrigin_sep",
    "rosenbrock",
    "bent_cigar",
    "discus",
    "diff_powers",
    "schaffers_f7",
    "griewank",
    "gauss_peaks",
]

EXPECTED_GROUPS = {
    "sphere": "separable",
    "ellipsoid": "separable",
    "rastrigin_sep": "separable",
    "rosenbrock": "low-moderate-conditioning",
    "bent_cigar": "high-conditioning-unimodal",
    "discus": "high-conditioning-unimodal",
    "diff_powers": "high-conditioning-unimodal",
    "schaffers_f7": "multimodal-strong-structure",
    "griewank": "multimodal-strong-structure",
    "gauss_peaks": "multimodal-weak-structure",
}


def shifted(fn, z):
    """Evaluate at x_opt + z and return the core value f - f_opt."""
    return fn.evaluate(fn.x_opt + np.asarray(z, dtype=float)) - fn.f_opt


def test_registry_lists_all_functions():
    assert function_ids() == ALL_IDS


def test_registry_groups_and_labels():
    rows = function_registry()
    assert [fid for fid, _, _ in rows] == ALL_IDS
    for fid, group, label in rows:
        assert group == EXPECTED_GROUPS[fid]
        assert label


@pytest.mark.parametrize("fid", ALL_IDS)
@pytest.mark.parametrize("dim", [2, 5, 10])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_optimum_identity_is_exact(fid, dim, seed):
    fn = make_function(fid, dim, seed)
    assert fn.evaluate(fn.x_opt) == fn.f_opt


@pytest.mark.parametrize("fid", ALL_IDS)
def test_optimum_and_value_ranges(fid):
    fn = make_function(fid, 5, 3)
    assert np.all(np.abs(fn.x_opt) <= 4.0)
    assert abs(fn.f_opt) <= 100.0
    assert np.array_equal(fn.lower_bounds, np.full(5, -5.0))
    assert np.array_equal(fn.upper_bounds, np.full(5, 5.0))


# frozen hand values for the shifted cores: g(z) at a probe offset z
def test_sphere_hand_value():
    fn = make_function("sphere", 5, 0)
    assert shifted(fn, [3, 4, 0, 0, 0]) == pytest.approx(25.0, rel=1e-12)


def test_ellipsoid_hand_value():
    # weights 10^(6 (i-1)/(D-1)): for D=2 they are 1 and 1e6
    fn = make_function("ellipsoid", 2, 0)
    assert shifted(fn, [1, 1]) == pytest.approx(1000001.0, rel=1e-12)


def test_rastrigin_hand_value():
    # 10 (D - sum cos 2 pi z_i) + |z|^2 at z = (0.5, 0, 0, 0, 0)
    fn = make_function("rastrigin_sep", 5, 0)
    assert shifted(fn, [0.5, 0, 0, 0, 0]) == pytest.approx(20.25, rel=1e-12)


def test_rosenbrock_hand_values():
    fn = make_function("rosenbrock", 3, 0)
    assert shifted(fn, [0, 0, 0]) == pytest.approx(0.0, abs=1e-9)
    # w = z + 1 = (2, 2, 2): two terms of 100 (4 - 2)^2 + (2 - 1)^2
    assert shifted(fn, [1, 1, 1]) == pytest.approx(802.0, rel=1e-12)


def test_bent_cigar_and_discus_hand_values():
    cigar = make_function("bent_cigar", 2, 0)
    assert shifted(cigar, [1, 1]) == pytest.approx(1000001.0, rel=1e-12)
    discus = make_function("discus", 3, 0)
    assert shifted(discus, [1, 1, 1]) == pytest.approx(1000002.0, rel=1e-12)


def test_diff_powers_hand_value():
    # exponents 2 and 6 for D=2: 0.5^2 + 0.5^6
    fn = make_function("diff_powers", 2, 0)
    assert shifted(fn, [0.5, 0.5]) == pytest.approx(0.265625, rel=1e-12)


def test_schaffers_hand_value():
    fn = make_function("schaffers_f7", 2, 0)
    assert shifted(fn, [1, 0]) == pytest.approx(1.1424201509443497, rel=1e-12)


def test_griewank_hand_value():
    fn = make_function("griewank", 2, 0)
    assert shifted(fn, [10, 0]) == pytest.approx(1.8640715290764525, rel=1e-12)


@pytest.mark.parametrize("fid", ["sphere", "ellipsoid", "rastrigin_sep"])
def test_separable_cores_decompose_coordinatewise(fid):
    fn = make_function(fid, 4, 5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.uniform(-3, 3, size=4)
        parts = 0.0
        for i in range(4):
            zi = np.zeros(4)
            zi[i] = z[i]
            parts += shifted(fn, zi)
        assert shifted(fn, z) == pytest.approx(parts, rel=1e-9, abs=1e-9)


def test_gauss_peaks_optimum_is_a_global_lower_bound():
    fn = make_function("gauss_peaks", 3, 7)
    rng = np.random.default_rng(123)
    smallest = np.inf
    for _ in range(20):
        xs = rng.uniform(-5, 5, size=(50_000, 3))
        smallest = min(smallest, float(fn.evaluate_many(xs).min()))
    assert smallest > fn.f_opt
    assert fn.evaluate(fn.x_opt) == fn.f_opt


@pytest.mark.parametrize("fid", ALL_IDS)
def test_core_is_nonnegative_everywhere_sampled(fid):
    fn = make_function(fid, 5, 2)
    rng = np.random.default_rng(99)
    xs = rng.uniform(-5, 5, size=(2000, 5))
    assert np.all(fn.evaluate_many(xs) >= fn.f_opt)


def test_loss_is_distance_from_optimum():
    fn = make_function("sphere", 2, 0)
    assert fn.loss(fn.f_opt) == 0.0
    assert fn.loss(fn.f_opt + 3.5) == 3.5
    assert fn.loss(fn.f_opt - 3.5) == 3.5


def test_eval_count_tracks_both_entry_points():
    fn = make_function("sphere", 3, 0)
    assert fn.eval_count == 0
    fn.evaluate(np.zeros(3))
    assert fn.eval_count == 1
    fn.evaluate_many(np.zeros((7, 3)))
    assert fn.eval_count == 8


@pytest.mark.parametrize("dim", [2, 10, 40])
def test_evaluate_many_rows_have_the_bits_of_evaluate(dim):
    # the cascade and the CMA-ES baselines evaluate blocks of candidates
    # and must store the values a one-point evaluation would give
    xs = np.random.default_rng(dim).uniform(-5, 5, size=(37, dim))
    for fid in function_ids():
        fn = make_function(fid, dim, 1)
        fs = fn.evaluate_many(xs)
        for n in (1, 15):
            assert np.array_equal(fn.evaluate_many(xs[:n]), fs[:n])
        assert fs.tolist() == [fn.evaluate(x) for x in xs]


def test_same_triple_reproduces_the_instance():
    a = make_function("gauss_peaks", 4, 13)
    b = make_function("gauss_peaks", 4, 13)
    assert np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt == b.f_opt
    xs = np.random.default_rng(0).uniform(-5, 5, size=(50, 4))
    assert np.array_equal(a.evaluate_many(xs), b.evaluate_many(xs))


def test_different_seeds_move_the_optimum():
    a = make_function("sphere", 5, 0)
    b = make_function("sphere", 5, 1)
    assert not np.array_equal(a.x_opt, b.x_opt)


def test_functions_sharing_a_seed_are_decorrelated():
    a = make_function("sphere", 5, 0)
    b = make_function("discus", 5, 0)
    assert not np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt != b.f_opt


def test_unknown_function_id_raises():
    with pytest.raises(UnknownFunction):
        make_function("not_a_function", 3, 0)


def test_dimension_below_two_raises():
    with pytest.raises(InvalidDimension):
        make_function("sphere", 1, 0)


def test_shape_mismatch_raises():
    fn = make_function("sphere", 3, 0)
    with pytest.raises(DimensionMismatch):
        fn.evaluate(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        fn.evaluate_many(np.zeros((5, 2)))
