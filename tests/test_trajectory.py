"""Trajectory CSV round-trip and validation tests.

The columnar writer and reader are compared with row-at-a-time oracles
(``trajectory_checks``): the same bytes written, the same bits read, and
the same ``ParseError`` for a malformed file.  Both work in blocks of
rows; the comparisons run again with blocks of a few rows or bytes, so
that blank lines, ragged rows, bad tokens and a bare ``-0`` fall at a
block's edge.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from divbatch import (
    DsConfig,
    ParseError,
    Trajectory,
    make_function,
    read_trajectory,
    run_cma_indep,
    run_cma_single,
    run_ds,
    run_random,
    trajectory,
    write_trajectory,
)
from trajectory_checks import (
    Point,
    column_bits,
    read_trajectory_reference,
    rows_of,
    trajectory_of,
    write_trajectory_reference,
)


def random_trajectory(n, dim, seed=0, instance_id=0):
    rng = np.random.default_rng(seed)
    xs, fs = np.empty((n, dim)), np.empty(n)
    for i in range(n):
        xs[i] = rng.uniform(-5, 5, dim) * 10.0 ** rng.integers(-12, 4)
        fs[i] = rng.normal() * 10.0 ** rng.integers(-9, 9)
    return Trajectory(xs=xs, fs=fs, instance_id=np.full(n, instance_id, dtype=np.int64))


def test_round_trip_is_bit_exact(tmp_path):
    traj = random_trajectory(1000, 10, seed=3)
    path = tmp_path / "t.csv"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert back == traj
    assert np.array_equal(back.xs, traj.xs)
    assert np.array_equal(back.fs, traj.fs)


def test_every_field_of_a_generated_trajectory_reads_back(tmp_path):
    # a trajectory holds exactly what its file holds, so nothing is lost
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["xs", "fs", "instance_id"]
    fn = make_function("rastrigin_sep", 3, 0)
    runs = {
        "ds": run_ds(DsConfig(k=3, d_min=1.0, budget=200, seed=1), fn)[0],
        "random": run_random(fn, 200, seed=2),
        "cma": run_cma_single(fn, 200, seed=3),
        "cma-indep": run_cma_indep(fn, 200, 3, seed=4),
    }
    for name, traj in runs.items():
        path = tmp_path / f"{name}.csv"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        for field in dataclasses.fields(Trajectory):
            written, read = getattr(traj, field.name), getattr(back, field.name)
            assert (read.dtype, read.shape) == (written.dtype, written.shape), (name, field.name)
            assert read.tobytes() == written.tobytes(), (name, field.name)


@contextmanager
def block_parsers():
    """Per read block: True if one orjson call took it, the block's lines if the line rules did."""
    taken = []
    json_block, line_block = trajectory._json_block, trajectory._line_block

    def json_spy(block, *args):
        parsed = json_block(block, *args)
        if parsed is not None:
            taken.append(True)
        return parsed

    def line_spy(lines, *args):
        taken.append(lines)
        return line_block(lines, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_json_block", json_spy)
        patch.setattr(trajectory, "_line_block", line_spy)
        yield taken


def test_a_finite_file_is_read_in_one_parse_call(tmp_path):
    # one orjson call per read block, and no block left to the line rules
    traj = run_random(make_function("sphere", 10, 0), 3000, seed=0)
    path = tmp_path / "t.csv"
    write_trajectory(traj, path)
    with block_parsers() as taken:
        back = read_trajectory(path)
    assert len(taken) > 1 and all(block is True for block in taken)
    reference = trajectory_of(read_trajectory_reference(path))
    for got, want in [(back.xs, reference.xs), (back.fs, reference.fs), (back.xs, traj.xs)]:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert back.instance_id.dtype == np.int64 and back.xs.flags.c_contiguous
    assert np.array_equal(back.instance_id, traj.instance_id)
    # NaN is not JSON: the line rules read the one block holding it, to the same bits
    traj.fs[1234] = math.nan
    write_trajectory(traj, path)
    with block_parsers() as taken:
        back = read_trajectory(path)
    (lines,) = [block for block in taken if block is not True]
    nan_rows = [line for line in lines if line.endswith(",nan")]
    assert len(nan_rows) == 1 and nan_rows[0].startswith("1234,")
    assert np.array_equal(back.fs.view(np.int64), traj.fs.view(np.int64))
    assert column_bits(back) == column_bits(traj)


def test_write_then_write_again_is_byte_identical(tmp_path):
    traj = random_trajectory(50, 4, seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory(traj, a)
    write_trajectory(read_trajectory(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_header_layout(tmp_path):
    traj = random_trajectory(2, 3)
    path = tmp_path / "t.csv"
    write_trajectory(traj, path)
    assert path.read_text().splitlines()[0] == "eval_index,instance_id,x0,x1,x2,f"


def header_only(tmp_path, dim=2):
    """The empty trajectory of a file holding only a header."""
    path = tmp_path / "header.csv"
    path.write_text("eval_index,instance_id," + ",".join(f"x{i}" for i in range(dim)) + ",f\n")
    return read_trajectory(path)


def test_empty_trajectory_is_refused(tmp_path):
    empty = header_only(tmp_path, dim=3)
    assert empty.xs.shape == (0, 3) and empty.fs.shape == (0,)
    with pytest.raises(ValueError):
        write_trajectory(empty, tmp_path / "t.csv")


@pytest.mark.parametrize("shape", [(2, 0), (2,)], ids=["no coordinate column", "1-D xs"])
def test_xs_without_a_coordinate_column_is_refused(tmp_path, shape):
    # the header would read eval_index,instance_id,,f, which the reader rejects
    traj = Trajectory(xs=np.zeros(shape), fs=np.zeros(2), instance_id=np.zeros(2, dtype=np.int64))
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="2-D with at least one column"):
        write_trajectory(traj, path)
    assert not path.exists()


@pytest.mark.parametrize("rows", [(2, 1, 1), (2, 2, 3), (3, 2, 2)], ids=str)
def test_columns_of_different_lengths_are_refused(tmp_path, rows):
    # zipping the columns would cut the file to the shortest one
    n_xs, n_fs, n_ids = rows
    traj = Trajectory(
        xs=np.ones((n_xs, 2)), fs=np.ones(n_fs), instance_id=np.zeros(n_ids, dtype=np.int64)
    )
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="one row per evaluation"):
        write_trajectory(traj, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "refused",
    [
        lambda tmp_path: header_only(tmp_path),
        lambda _: Trajectory(xs=np.zeros(2), fs=np.zeros(2), instance_id=np.zeros(2, np.int64)),
        lambda _: Trajectory(xs=np.ones((3, 2)), fs=np.ones(2), instance_id=np.zeros(3, np.int64)),
    ],
    ids=["empty", "1-D xs", "columns of different lengths"],
)
def test_a_refused_write_leaves_an_existing_file_untouched(tmp_path, refused):
    path = tmp_path / "t.csv"
    write_trajectory(random_trajectory(5, 2, seed=4), path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_trajectory(refused(tmp_path), path)
    assert path.read_bytes() == before


# instance_id columns the writer would write as text the reader refuses:
# ``0.0``, ``True`` and integers past int64
UNREADABLE_IDS = {
    "float": np.zeros(2),
    "bool": np.array([True, False]),
    "uint64 2**63": np.array([0, 2**63], dtype=np.uint64),
    "uint64 2**64 - 1": np.array([2**64 - 1, 0], dtype=np.uint64),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_IDS))
def test_instance_ids_the_reader_refuses_are_not_written(tmp_path, case):
    path = tmp_path / "t.csv"
    write_trajectory(random_trajectory(5, 2, seed=4), path)
    before = path.read_bytes()
    traj = Trajectory(xs=np.ones((2, 2)), fs=np.ones(2), instance_id=UNREADABLE_IDS[case])
    with pytest.raises(ValueError, match="instance_id must be integers in the int64 range"):
        write_trajectory(traj, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "dtype, values",
    [(np.int32, [0, -1, 2**31 - 1]), (np.uint64, [0, 1, 2**63 - 1])],
    ids=["int32", "uint64"],
)
def test_other_integer_instance_ids_round_trip(tmp_path, dtype, values):
    ids = np.array(values, dtype=dtype)
    path = tmp_path / "t.csv"
    write_trajectory(Trajectory(xs=np.ones((3, 2)), fs=np.ones(3), instance_id=ids), path)
    back = read_trajectory(path).instance_id
    assert back.dtype == np.int64 and back.tolist() == ids.tolist()


def test_io_memory_is_one_block_not_the_file(tmp_path):
    # the traced peak of a write, and of a read beyond the file's bytes and
    # the columns it returns, stays at one block's, whatever the file's size
    n, dim = 20_000, 40
    rng = np.random.default_rng(0)
    traj = Trajectory(
        xs=rng.uniform(-5, 5, (n, dim)), fs=rng.normal(size=n), instance_id=rng.integers(0, 5, n)
    )
    path = tmp_path / "t.csv"
    mb = 2**20
    # then the same file with one NaN and one +inf fitness, whose two
    # blocks the line rules read
    for non_finite in ({}, {123: math.nan, 17_000: math.inf}):
        for row, f in non_finite.items():
            traj.fs[row] = f
        tracemalloc.start()
        try:
            write_trajectory(traj, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            back = read_trajectory(path)
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert column_bits(back) == column_bits(traj)
        columns = back.xs.nbytes + back.fs.nbytes + back.instance_id.nbytes
        assert path.stat().st_size > 10 * mb
        assert write_peak < 4 * mb
        assert read_peak < path.stat().st_size + columns + 4 * mb


def test_missing_header_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,1.0,2.0,3.0\n")
    with pytest.raises(ParseError, match="line 1"):
        read_trajectory(path)


@pytest.mark.parametrize(
    "header",
    ["eval_index,instance_id,x1,f", "eval_index,instance_id,x0,g", "eval_index,x0,f",
     "instance_id,eval_index,x0,f", "eval_index,instance_id,x0,f,", "eval_index,instance_id,x0,f\r"],
)
def test_an_odd_header_over_a_numeric_body_reads_like_the_reference(tmp_path, header):
    path = tmp_path / "t.csv"
    path.write_bytes(header.encode() + b"\n0,0,1.0,2.0\n1,0,1.5,2.5\n")
    assert outcome(read_trajectory, path) == outcome(read_trajectory_reference, path)


def test_empty_file_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_trajectory(path)


def test_wrong_field_count_reports_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("eval_index,instance_id,x0,x1,f\n0,0,1.0,2.0,3.0\n1,0,1.0,3.0\n")
    with pytest.raises(ParseError, match="line 3"):
        read_trajectory(path)


def test_bad_float_reports_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("eval_index,instance_id,x0,x1,f\n0,0,1.0,oops,3.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_trajectory(path)


def test_eval_index_gap_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("eval_index,instance_id,x0,x1,f\n0,0,1.0,2.0,3.0\n2,0,1.0,2.0,3.0\n")
    with pytest.raises(ParseError, match="contiguity"):
        read_trajectory(path)


def test_eval_index_must_start_at_zero(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("eval_index,instance_id,x0,x1,f\n1,0,1.0,2.0,3.0\n")
    with pytest.raises(ParseError):
        read_trajectory(path)


def test_best_breaks_ties_by_earliest_index():
    traj = Trajectory(
        xs=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
        fs=np.array([1.0, 0.5, 0.5]),
        instance_id=np.zeros(3, dtype=np.int64),
    )
    assert type(traj.best()) is int and traj.best() == 1
    # NaN ranks as +inf: it ties with +inf, and the earlier row wins
    traj.fs = np.array([math.nan, math.inf, math.nan])
    assert traj.best() == 0


def test_best_of_empty_raises(tmp_path):
    with pytest.raises(ValueError):
        header_only(tmp_path).best()


def test_a_nan_fitness_trajectory_equals_a_copy_of_itself():
    ids = np.zeros(1, np.int64)
    traj = Trajectory(xs=np.zeros((1, 2)), fs=np.array([math.nan]), instance_id=ids)
    copy = Trajectory(xs=traj.xs.copy(), fs=traj.fs.copy(), instance_id=ids.copy())
    assert traj == traj
    assert traj == copy
    assert traj != Trajectory(xs=np.zeros((1, 2)), fs=np.zeros(1), instance_id=ids)


def test_negative_instance_ids_survive_round_trip(tmp_path):
    traj = random_trajectory(5, 2, seed=1, instance_id=-1)
    path = tmp_path / "t.csv"
    write_trajectory(traj, path)
    assert read_trajectory(path).instance_id.tolist() == [-1] * 5


# the ``points`` view stays only for perfbench's output checks, which read it
def test_points_are_views_rebuilt_on_every_access():
    traj = random_trajectory(4, 3, seed=2)
    first, second = traj.points, traj.points
    assert first is not second and all(a is not b for a, b in zip(first, second))
    for a, b in zip(first, second):
        assert (a.f, a.eval_index, a.instance_id) == (b.f, b.eval_index, b.instance_id)
        assert np.array_equal(a.x, b.x)
    assert [p.eval_index for p in first] == [0, 1, 2, 3]
    assert all(type(p.f) is float and type(p.instance_id) is int for p in first)
    assert np.shares_memory(first[1].x, traj.xs)


# bit patterns a CSV writer can get wrong: signed zero, subnormals,
# non-finite values, magnitudes near the float range's ends, and the
# values on either side of the ends of [1e-4, 1e16), the range in which
# the writer takes orjson's text instead of repr's
SPECIAL_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3,
    1e-4, math.nextafter(1e-4, 0), -1e-4, 5e-5, 1e15, 9999999999999998.0, 1e16, -1e16, 2.0**53 + 2,
]


@st.composite
def columnar_trajectories(draw):
    """Trajectories of D 1-40 and 1-300 rows.

    At least half the rows hold only magnitudes in [1e-4, 1e16); in the
    others each value is drawn from the whole float range with even odds,
    and special values are sprinkled over those draws.
    """
    dim, n = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, dim + 1)
    table = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4, 16, shape)
    wide = rng.random(shape) < 0.5
    wide[rng.permutation(n)[: (n + 1) // 2]] = False
    table[wide] = rng.standard_normal(wide.sum()) * 10.0 ** rng.integers(-320, 300, wide.sum())
    special = wide & (rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])))
    table[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    return Trajectory(
        xs=table[:, :dim].copy(), fs=table[:, dim].copy(), instance_id=rng.integers(-5, 6, n)
    )


@contextmanager
def blocks(write_values, read_bytes):
    """Writes in blocks of ``write_values`` floats, reads in blocks of ``read_bytes`` bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_WRITE_BLOCK_VALUES", write_values)
        patch.setattr(trajectory, "_READ_BLOCK_BYTES", read_bytes)
        yield


@seed(0)
@settings(max_examples=120, deadline=None, database=None)
@given(columnar_trajectories())
def test_columnar_io_equals_the_row_at_a_time_reference(tmp_path_factory, traj):
    check_columnar_io(tmp_path_factory, traj)


@seed(0)
@settings(max_examples=60, deadline=None, database=None)
@given(columnar_trajectories(), st.integers(1, 3), st.integers(1, 48))
def test_columnar_io_in_tiny_blocks_equals_the_reference(tmp_path_factory, traj, rows, size):
    # 1-3 rows per written block and a few bytes per read block, so most
    # lines of a file sit at a block's edge
    with blocks(rows * (traj.xs.shape[1] + 1), size):
        check_columnar_io(tmp_path_factory, traj)


def check_columnar_io(tmp_path_factory, traj):
    work = tmp_path_factory.mktemp("io")
    new, ref = work / "new.csv", work / "ref.csv"
    write_trajectory(traj, new)
    write_trajectory_reference(rows_of(traj), ref)
    assert new.read_bytes() == ref.read_bytes()
    back = read_trajectory(new)
    assert column_bits(back) == column_bits(trajectory_of(read_trajectory_reference(ref)))
    assert column_bits(back) == column_bits(traj)
    assert back.xs.flags.c_contiguous


@seed(0)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_random_bit_patterns_are_written_like_the_reference(tmp_path_factory, dim, n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, (n, dim + 1), dtype=np.uint64)
    # about one value in twenty gets the all-ones exponent: a NaN, or an
    # infinity when its mantissa is cleared too
    non_finite = rng.random(bits.shape) < 0.05
    bits[non_finite] |= np.uint64(0x7FF << 52)
    bits[non_finite & (rng.random(bits.shape) < 0.5)] &= np.uint64(0xFFF << 52)
    table = bits.view(np.float64)
    traj = Trajectory(
        xs=table[:, :dim].copy(), fs=table[:, dim].copy(), instance_id=rng.integers(-5, 6, n)
    )
    work = tmp_path_factory.mktemp("bits")
    new, ref = work / "new.csv", work / "ref.csv"
    write_trajectory(traj, new)
    write_trajectory_reference(rows_of(traj), ref)
    assert new.read_bytes() == ref.read_bytes()


def outcome(read, path):
    """The ParseError message a reader raises, or the bits of what it reads.

    The row-at-a-time reference returns points: with none, the header
    gives the dimension, and an instance_id outside int64, which a point
    keeps, is named here in the columnar reader's words.
    """
    try:
        result = read(path)
    except ParseError as exc:
        return str(exc)
    if isinstance(result, Trajectory):
        return column_bits(result)
    if not result:
        dim = len(Path(path).read_text().splitlines()[0].split(",")) - 3
        return column_bits(Trajectory(np.empty((0, dim)), np.empty(0), np.empty(0, np.int64)))
    try:
        return column_bits(trajectory_of(result))
    except OverflowError:
        return f"{path}: an instance_id is outside the int64 range"


MALFORMED_BODIES = {
    "wrong field count": ["0,0,1.0,2.0,3.0", "1,0,1.0,3.0"],
    "float eval_index": ["0,0,1.0,2.0,3.0", "1.0,0,1.0,2.0,3.0"],
    "bad float": ["0,0,1.0,2.0,3.0", "1,0,1.0,oops,3.0"],
    "index gap": ["0,0,1.0,2.0,3.0", "2,0,1.0,2.0,3.0"],
    "blank lines inside the body": ["0,0,1.0,2.0,3.0", "", "", "1,0,1.0,2.0,3.0", "", "3,0,1,2,3"],
    "blank lines then a bad float": ["", "0,0,1.0,2.0,3.0", "", "1,0,1.0,2.0,x"],
    "gap before a wrong field count": ["0,0,1,2,3", "5,0,1,2,3", "2,0,1,2"],
    "bad instance_id before a gap": ["0,0,1,2,3", "1,-,1,2,3", "7,0,1,2,3"],
    "bad float and bad index on one line": ["0,0,1,2,3", "9,0,1,2,zz"],
    # the int64 range is checked once every line has passed
    "instance_id outside int64 before a wrong field count": [
        "0,9223372036854775808,1.5,2.5,3.0", "1,0,1.5,2.0,3.0", "2,0,1.5,2.0",
    ],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
def test_malformed_files_name_the_reference_line(tmp_path, case):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(["eval_index,instance_id,x0,x1,f", *MALFORMED_BODIES[case]]) + "\n")
    expected = outcome(read_trajectory_reference, path)
    assert isinstance(expected, str), "every case is malformed"
    assert outcome(read_trajectory, path) == expected
    # and with each line in turn at the end of a read block
    for size in range(1, path.stat().st_size + 1):
        with blocks(1, size):
            assert outcome(read_trajectory, path) == expected, f"{size}-byte blocks"


# D=1 bodies read with blocks of every size from 1 byte to the whole
# file, so each line in turn ends a block, and whether one orjson call
# takes every block; a bare -0 must still reach the line rules, as JSON
# reads it as the int 0
EDGE_BODIES = {
    "bare -0 ending a line": (b"0,0,1.5,2.5\n1,0,1.5,-0\n2,1,0.5,1.0\n", False),
    "bare -0 inside a line": (b"0,0,1.5,2.5\n1,0,-0,3.0\n2,1,0.5,1.0\n", False),
    "bare -0 ending a last line without a line end": (b"0,0,1.5,2.5\n1,0,1.5,-0", False),
    "a last line without a line end": (b"0,0,1.5,2.5\n1,0,1e-3,-2.0", True),
    "a blank line": (b"0,0,1.5,2.5\n\n1,0,1.5,2.0\n", False),
    "a blank last line": (b"0,0,1.5,2.5\n1,0,1.5,2.0\n\n", False),
    "a ragged row": (b"0,0,1.5,2.5\n1,0,1.5\n2,0,1.5,2.0\n", False),
    "a bad token": (b"0,0,1.5,2.5\n1,0,1.5,2.0\n2,0,1.5,1.2.3\n", False),
    "a float eval_index": (b"0,0,1.5,2.5\n1.0,0,1.5,2.0\n", False),
    "an index gap": (b"0,0,1.5,2.5\n1,0,1.5,2.0\n3,0,1.5,2.0\n", False),
    "a well-formed file": (b"0,-1,1.5,2.5\n1,0,-0.0,2.0\n2,4,7,-0.5\n", True),
    # more rows than line ends: ``str.splitlines`` also splits at these
    "rows split by a lone CR": (b"0,0,1.5,2.5\r1,0,1.5,2.0\r2,0,1.0,0.5\n", False),
    "rows split by a form feed and a vertical tab": (
        b"0,0,1.5,2.5\x0c1,0,1.5,2.0\n2,0,1.0,0.5\x0b3,0,1.0,0.5\n", False
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_BODIES))
def test_every_read_block_edge_reads_like_the_reference(tmp_path, case):
    body, one_call_per_block = EDGE_BODIES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(b"eval_index,instance_id,x0,f\n" + body)
    expected = outcome(read_trajectory_reference, path)
    for size in range(1, path.stat().st_size + 1):
        with blocks(1, size), block_parsers() as taken:
            assert outcome(read_trajectory, path) == expected, f"{size}-byte blocks"
        assert all(block is True for block in taken) == one_call_per_block, f"{size}-byte blocks"


def test_rows_on_the_header_line_read_like_the_reference(tmp_path):
    # a lone CR ends the header's line before its first line end
    path = tmp_path / "t.csv"
    path.write_bytes(b"eval_index,instance_id,x0,f\r0,0,1.5,2.5\r\n1,0,1.5,2.0\n2,0,1.0,0.5\n")
    expected = outcome(read_trajectory_reference, path)
    assert not isinstance(expected, str) and expected[3] == (3, 1)
    for size in range(1, path.stat().st_size + 1):
        with blocks(1, size):
            assert outcome(read_trajectory, path) == expected, f"{size}-byte blocks"


def test_an_undecodable_byte_outranks_an_earlier_bad_line(tmp_path):
    # the reference decodes the whole file before it parses a line
    path = tmp_path / "t.csv"
    path.write_bytes(b"eval_index,instance_id,x0,f\n0,0,1.5\n1,0,1.5,2.0\n2,0,\xff,1.0\n")
    with pytest.raises(UnicodeDecodeError) as expected:
        read_trajectory_reference(path)
    for size in range(1, path.stat().st_size + 1):
        with blocks(1, size), pytest.raises(UnicodeDecodeError) as got:
            read_trajectory(path)
        assert str(got.value) == str(expected.value), f"{size}-byte blocks"


# each edit breaks one line of a well-formed file, or inserts a blank line
EDITS = ("drop field", "extra field", "float index", "bad float", "gap", "bad id", "blank")
BAD_FLOATS = ("oops", "1.0.0", "", "0x1p3", "1e", "--1", " ", "nan!")
# tokens that JSON and ``int``/``float`` read differently, each swapped in
# for one token of a line: integers JSON reads as floats or that int64
# cannot hold, and tokens JSON refuses, reads as another value, or that
# are not numbers ("\u0661" is ARABIC-INDIC DIGIT ONE, which ``int`` and
# ``float`` accept)
ODD_INTS = ("1.0", "1e3", "-0", str(2**53 + 1), str(2**63), str(2**64), str(-(2**63) - 1))
ODD_TOKENS = (
    "01", "1.", ".5", "+1", "1e400", "1e-400", "nan", "-inf", "-0", "true", "null", "[",
    "1.5\r", "\u0661",
)


EDITED_FILES = (
    st.integers(1, 4),
    st.integers(1, 12),
    st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 11), st.integers(0, 7)), max_size=4),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 6), st.sampled_from(ODD_INTS + ODD_TOKENS)),
        max_size=2,
    ),
)


@seed(0)
@settings(max_examples=500, deadline=None, database=None)
@given(*EDITED_FILES)
def test_edited_files_parse_or_fail_like_the_reference(tmp_path_factory, dim, n, edits, swaps):
    check_edited_file(tmp_path_factory, dim, n, edits, swaps)


@seed(0)
@settings(max_examples=300, deadline=None, database=None)
@given(*EDITED_FILES, st.integers(1, 64))
def test_edited_files_in_tiny_blocks_parse_or_fail_like_the_reference(
    tmp_path_factory, dim, n, edits, swaps, size
):
    with blocks(1, size):
        check_edited_file(tmp_path_factory, dim, n, edits, swaps)


def check_edited_file(tmp_path_factory, dim, n, edits, swaps):
    rng = np.random.default_rng(dim * 100 + n)
    points = [
        Point(rng.standard_normal(dim), float(rng.normal()), i, instance_id=i % 3 - 1)
        for i in range(n)
    ]
    path = tmp_path_factory.mktemp("edits") / "t.csv"
    write_trajectory_reference(points, path)
    header, *rows = path.read_text().splitlines()
    rows = [row.split(",") for row in rows]
    blanks = []
    for edit, row, pick in edits:
        tokens = rows[row % n]
        if edit == "drop field":
            tokens.pop(pick % len(tokens))
        elif edit == "extra field":
            tokens.append("0.5")
        elif edit == "float index":
            tokens[0] += ".0"
        elif edit == "bad float":
            tokens[2 + pick % (len(tokens) - 2) if len(tokens) > 2 else -1] = BAD_FLOATS[pick]
        elif edit == "gap":
            tokens[0] = str(row % n + 1 + pick)
        elif edit == "bad id":
            tokens[1] = "1.5"
        else:
            blanks.append(row % (n + 1))
    for row, column, token in swaps:
        tokens = rows[row % n]
        tokens[column % len(tokens)] = token
    lines = [",".join(tokens) for tokens in rows]
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    path.write_text("\n".join([header, *lines]) + "\n")
    assert outcome(read_trajectory, path) == outcome(read_trajectory_reference, path)
