"""Columnar evaluation histories and their CSV persistence.

A trajectory is the full, ordered evaluation history of one optimizer run,
held as exactly the columns its file holds: ``xs`` (T x D coordinates),
``fs`` (T objective values) and ``instance_id`` (T ints; -1 for producers
without instances, e.g. random sampling).  Row i is evaluation i, so
``eval_index`` is the row number and is not stored.  What produced the
run (function, algorithm, config, seed) is the caller's to record; a
cascade run's restart epoch and generation of each row follow from its
``cascade.CascadeLog``.

Rows are ranked by ``fitness_keys``: lower f first, NaN as +inf, and
the earlier row on a tie, so ``best()`` is the first minimum of the keys.

The CSV layout is ``eval_index,instance_id,x0,...,x{D-1},f`` with floats
written as shortest round-trip text, so write/read is lossless: Ryu
(through orjson) formats them, and ``repr`` the values whose notation
differs between the two (see ``format_rows``).

Both directions work in blocks of whole rows, so the memory they use
besides the columns and the file's bytes is one block's, not the file's.
``write_trajectory`` formats and writes about ``_WRITE_BLOCK_VALUES``
floats at a time.  ``read_trajectory`` walks every file in blocks of about
``_READ_BLOCK_BYTES`` bytes: one orjson call parses a block of JSON numbers,
as the writer leaves a finite one, and a block holding NaN, an infinity,
a blank line or a CR is decoded and parsed one line at a time.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

__all__ = [
    "ParseError",
    "Trajectory",
    "fitness_keys",
    "read_trajectory",
    "write_trajectory",
]


class ParseError(ValueError):
    """Trajectory file violates the expected CSV layout."""


class EmptyPortfolio(ValueError):
    """A leader or a selection requested from a trajectory with no points."""


def _check_int(name: str, value, low: int | None = None, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy int of at least ``low``.

    A bool is no count, size or seed, so it is refused as not an int.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")


# one row as a record: it stays only for the ``points`` views perfbench's output checks read
@dataclass(eq=False)
class EvaluatedPoint:
    x: np.ndarray
    f: float
    eval_index: int
    instance_id: int


def fitness_keys(fs: np.ndarray) -> np.ndarray:
    """Rank keys for a column of fitness values: f, with NaN ranked as +inf.

    A stable sort of rows in eval_index order by these keys ranks lower f
    first and, on a tie, the earlier row.
    """
    fs = np.asarray(fs, dtype=float)
    return np.where(np.isnan(fs), np.inf, fs)


@dataclass(eq=False)
class Trajectory:
    """Ordered evaluation history of a single run; row i is evaluation i."""

    xs: np.ndarray
    fs: np.ndarray
    instance_id: np.ndarray

    def __len__(self) -> int:
        return len(self.fs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            np.array_equal(self.xs, other.xs)
            and np.array_equal(self.fs, other.fs, equal_nan=True)
            and np.array_equal(self.instance_id, other.instance_id)
        )

    # points stays only for perfbench's output checks; nothing in the package reads it
    @property
    def points(self) -> list[EvaluatedPoint]:
        """Every row as a point, built on each access; each ``x`` is a row view."""
        return [
            EvaluatedPoint(x=x, f=f, eval_index=i, instance_id=j)
            for i, (x, f, j) in enumerate(zip(self.xs, self.fs.tolist(), self.instance_id.tolist()))
        ]

    def best(self) -> int:
        """The leader's row: the first minimum of ``fitness_keys`` (NaN ranked as +inf)."""
        if not len(self):
            raise EmptyPortfolio("portfolio has no points")
        return int(np.argmin(fitness_keys(self.fs)))


def _header(dimension: int) -> str:
    coords = ",".join(f"x{i}" for i in range(dimension))
    return f"eval_index,instance_id,{coords},f"


def format_rows(table: np.ndarray) -> list[str]:
    """Each row of a 2-D float table as its values' ``repr`` text, comma-joined.

    One orjson call formats the whole table with Ryu (Adams, "Ryu: fast
    float-to-string conversion", PLDI 2018), whose text equals ``repr``'s
    for zero and for |v| in [1e-4, 1e16); only a row holding a value
    outside that range (NaN and the infinities included) is re-joined with
    ``repr``.
    """
    table = np.ascontiguousarray(table, dtype=float)
    if not len(table):
        return []
    rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    magnitude = np.abs(table)
    in_range = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (table == 0)
    for r in np.flatnonzero(~in_range.all(axis=1)).tolist():
        rows[r] = ",".join(map(repr, table[r].tolist()))
    return rows


# the floats formatted per written block, and the bytes of text per read
# block: memory in either direction is one block's, not the file's
_WRITE_BLOCK_VALUES = 1 << 14
_READ_BLOCK_BYTES = 1 << 16


def _write_rows(
    path: str | Path, header: str, first: np.ndarray, second: np.ndarray, floats: list[np.ndarray]
) -> None:
    """Write ``header``, then row r as ``first[r],second[r],`` and its floats.

    ``first`` and ``second`` are int columns; the floats of row r are row
    r of the arrays in ``floats`` side by side, as ``format_rows`` formats
    them.  Rows are formatted and written in blocks of about
    ``_WRITE_BLOCK_VALUES`` floats, so the text in memory is one block's.
    """
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in floats)
    step = max(1, _WRITE_BLOCK_VALUES // width)
    with open(path, "w") as out:
        out.write(header + "\n")
        for a in range(0, len(first), step):
            b = a + step
            rows = zip(
                first[a:b].tolist(),
                second[a:b].tolist(),
                format_rows(np.column_stack([c[a:b] for c in floats])),
            )
            out.write("".join([f"{i},{j},{row}\n" for i, j, row in rows]))


def write_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    """Write the rows as CSV, floats as shortest round-trip text (``format_rows``).

    Refuses an empty trajectory, ``xs`` that is not 2-D with at least one
    column, an ``instance_id`` that is not integers in the int64 range
    (floats, bools, uint64 from 2**63), and ``xs``, ``fs`` and
    ``instance_id`` of different lengths: the reader would reject the
    first three files, and the last one would be cut to the shortest
    column.  The checks come before the file is opened, so a refused write
    leaves an existing file as it was.  The text is written one block of
    rows at a time (``_write_rows``).
    """
    if not len(trajectory):
        raise ValueError("refusing to write an empty trajectory")
    xs = np.asarray(trajectory.xs, dtype=float)
    fs = np.asarray(trajectory.fs, dtype=float)
    ids = np.asarray(trajectory.instance_id)
    if xs.ndim != 2 or not xs.shape[1]:
        raise ValueError(f"xs must be 2-D with at least one column, got shape {xs.shape}")
    if ids.dtype.kind not in "iu" or (ids > np.iinfo(np.int64).max).any():
        raise ValueError(f"instance_id must be integers in the int64 range, got dtype {ids.dtype}")
    if not len(xs) == len(fs) == len(ids):
        raise ValueError(
            f"xs, fs and instance_id must have one row per evaluation, "
            f"got {len(xs)}, {len(fs)} and {len(ids)}"
        )
    _write_rows(path, _header(xs.shape[1]), np.arange(len(xs)), ids, [xs, fs])


# the bytes of JSON numbers, the commas between them and the line ends
_NUMBER_BYTES = b"0123456789eE.+-,\n"


def _decode(data: bytes) -> str:
    """The text ``Path.read_text`` gives: the default encoding, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _json_block(block: bytes, row: int, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The instance_id column and float fields of ``block`` by one orjson call, or None.

    ``block`` is whole lines from row ``row`` on; the file's last line may
    lack its line end.  The parse is kept only if the block holds only
    ``_NUMBER_BYTES``, every row has ``width`` fields (a blank line has
    none), both integer columns are int64 (not ``1.0``, ``1e3`` or beyond
    int64), eval_index counts on from ``row`` and no bare ``-0`` was read:
    JSON reads it as the int 0, not -0.0, and every other number as
    ``float`` does.
    """
    if block.translate(None, _NUMBER_BYTES):
        return None
    try:
        rows = orjson.loads(b"[[" + block.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]")
    except orjson.JSONDecodeError:
        return None
    if set(map(len, rows)) != {width}:
        return None
    eval_index, ids = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    counts_on = np.array_equal(eval_index, np.arange(row, row + len(rows)))
    if not (eval_index.dtype == ids.dtype == np.int64 and counts_on):
        return None
    table = np.fromiter(chain.from_iterable(rows), float, len(rows) * width).reshape(-1, width)
    # only a zero can have been read from a bare -0
    if not table[:, 2:].all() and (b",-0," in block or b",-0\n" in block or block.endswith(b",-0")):
        return None
    return ids, table[:, 2:]


def _line_block(
    lines: list[str], lineno: int, row: int, width: int, path: str | Path
) -> tuple[list[int], np.ndarray]:
    """The instance_id column and float fields of ``lines`` by ``int`` and ``float``.

    The first of ``lines`` is line ``lineno`` of the file and holds row
    ``row``; blank lines are skipped.  The first bad line raises
    ``ParseError``: a wrong field count, a token ``int`` or ``float``
    rejects, or an eval_index that breaks contiguity, checked in that order.
    """
    instance_id, values = [], []
    for lineno, line in enumerate(lines, start=lineno):
        if not line:
            continue
        tokens = line.split(",")
        if len(tokens) != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} fields, got {len(tokens)}")
        try:
            eval_index, j = int(tokens[0]), int(tokens[1])
            values += map(float, tokens[2:])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if eval_index != row + len(instance_id):
            raise ParseError(
                f"{path}: line {lineno}: eval_index {eval_index} breaks contiguity "
                f"(expected {row + len(instance_id)})"
            )
        instance_id.append(j)
    return instance_id, np.asarray(values, dtype=float).reshape(len(instance_id), width - 2)


def read_trajectory(path: str | Path) -> Trajectory:
    """Parse a trajectory CSV, validating layout and eval_index contiguity.

    After the header, blocks of whole lines of about ``_READ_BLOCK_BYTES``
    bytes go straight into preallocated columns, each parsed by one orjson
    call (``_json_block``) or else decoded and parsed by the line rules
    (``_line_block``) to the same bits, so a read holds one block besides
    the file's bytes and the result.  A malformed file raises ``ParseError``
    naming the first bad line; an instance_id outside int64 is refused
    once every line has passed.  An undecodable byte outranks both.
    """
    data = Path(path).read_bytes()
    try:
        start = data.find(b"\n") + 1 or len(data)
        lines = _decode(data[:start]).splitlines()
        if not lines:
            raise ParseError(f"{path}: empty file, missing header")
        dim = lines[0].count(",") - 2
        if dim < 1 or lines[0] != _header(dim):
            raise ParseError(f"{path}: line 1: malformed header {lines[0]!r}")
        width, row, lineno, outside_int64 = dim + 3, 0, 2, False
        if len(lines) > 1:  # a lone CR ended the header: walk on from the rest of line 1
            start, lineno = len(lines[0]), 1
        # a row per line end, and one more when the last line has none;
        # numpy counts them faster than bytes.count, one block at a time so
        # that the comparison's array stays one block's
        view = np.frombuffer(data, np.uint8)
        n = sum(
            int(np.count_nonzero(view[a : a + _READ_BLOCK_BYTES] == 10))
            for a in range(start, len(data), _READ_BLOCK_BYTES)
        ) + (not data.endswith(b"\n"))
        xs, fs, instance_id = np.empty((n, dim)), np.empty(n), np.empty(n, dtype=np.int64)
        while start < len(data):
            # whole lines: up to the last line end in the block, or past the
            # block's end when one line is longer than a block
            stop = (
                data.rfind(b"\n", start, start + _READ_BLOCK_BYTES) + 1
                or data.find(b"\n", start + _READ_BLOCK_BYTES) + 1
                or len(data)
            )
            block, start = data[start:stop], stop
            parsed = _json_block(block, row, width)
            lines = [] if parsed else _decode(block).splitlines()
            ids, values = parsed or _line_block(lines, lineno, row, width, path)
            lineno += len(lines) or len(values)
            end = row + len(values)
            if end > len(fs):
                # a lone CR or a form feed splits a line: more rows than line ends
                xs, fs, instance_id = (
                    np.resize(c, (2 * end, *c.shape[1:])) for c in (xs, fs, instance_id)
                )
            try:
                instance_id[row:end] = ids
            except OverflowError:
                outside_int64 = True
            xs[row:end], fs[row:end] = values[:, :-1], values[:, -1]
            row = end
        if outside_int64:
            raise ParseError(f"{path}: an instance_id is outside the int64 range")
        return Trajectory(xs=xs[:row], fs=fs[:row], instance_id=instance_id[:row])
    except (ParseError, UnicodeDecodeError):
        # as when the whole text is decoded before any line is parsed: an
        # undecodable byte is the error, at its position in the file
        _decode(data)
        raise
