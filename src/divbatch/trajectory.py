"""Columnar evaluation histories and their CSV persistence.

A trajectory is the full, ordered evaluation history of one optimizer run,
held as columns: ``xs`` (T x D coordinates), ``fs`` (T objective values)
and ``instance_id`` (T ints; -1 for producers without instances, e.g.
random sampling).  A cascade run also fills ``epoch`` and ``generation``,
the restart epoch and the generation each row was evaluated in.  Row i is
evaluation i, so ``eval_index`` is the row number and is not stored.

``EvaluatedPoint`` is a view of one row for the API edge: ``best()``,
``Trajectory.points`` and ``selection.Batch.points``, both rebuilt on
every access.  ``Trajectory.from_points`` builds the columns from a
non-empty list of such views; the selectors take a ``Trajectory`` only.

The CSV layout is ``eval_index,instance_id,x0,...,x{D-1},f`` with floats
written as shortest round-trip text, so write/read is lossless: Ryu
(through orjson) formats them, and ``repr`` the values whose notation
differs between the two (see ``format_rows``).  The ``epoch`` and
``generation`` columns are not written.

Both directions work in blocks of whole rows, so the memory they use
besides the columns and the file's bytes is one block's, not the file's.
``write_trajectory`` formats and writes about ``_WRITE_BLOCK_VALUES``
floats at a time.  ``read_trajectory`` parses a body made only of JSON
numbers, as the writer leaves it when every value is finite, with one
orjson call per block of about ``_READ_BLOCK_BYTES`` bytes
(``_read_json_numbers``), straight into preallocated columns.  Any other
file, such as one holding NaN, an infinity, blank lines or CR bytes, goes
through a parser that reads one line at a time, holding the whole text,
and names the first bad line of a malformed file.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

__all__ = [
    "EvaluatedPoint",
    "ParseError",
    "Trajectory",
    "fitness_key",
    "fitness_keys",
    "read_trajectory",
    "write_trajectory",
]


class ParseError(ValueError):
    """Trajectory file violates the expected CSV layout."""


@dataclass(eq=False)
class EvaluatedPoint:
    x: np.ndarray
    f: float
    eval_index: int
    instance_id: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvaluatedPoint):
            return NotImplemented
        # NaN fitness equals NaN fitness, so reruns that meet one compare equal
        return (
            self.eval_index == other.eval_index
            and self.instance_id == other.instance_id
            and (self.f == other.f or (math.isnan(self.f) and math.isnan(other.f)))
            and np.array_equal(self.x, other.x)
        )


def fitness_key(p: EvaluatedPoint) -> tuple[float, int]:
    """Total order on points: lower f first, NaN ranked as +inf, then eval_index."""
    return (math.inf if math.isnan(p.f) else p.f, p.eval_index)


def fitness_keys(fs: np.ndarray) -> np.ndarray:
    """The first component of ``fitness_key`` for a column of fitness values.

    A stable sort of rows in eval_index order by these keys is the
    ``fitness_key`` order.
    """
    fs = np.asarray(fs, dtype=float)
    return np.where(np.isnan(fs), np.inf, fs)


@dataclass(eq=False)
class Trajectory:
    """Ordered evaluation history of a single run; row i is evaluation i.

    ``points`` and ``best()`` give rows as ``EvaluatedPoint`` views.
    """

    xs: np.ndarray
    fs: np.ndarray
    instance_id: np.ndarray
    function_id: str = ""
    algorithm_id: str = ""
    config: dict = field(default_factory=dict)
    # cascade runs only: the restart epoch and generation of each row
    epoch: np.ndarray | None = None
    generation: np.ndarray | None = None

    @classmethod
    def from_points(cls, points: list[EvaluatedPoint], **fields) -> "Trajectory":
        """The columns of ``points``, whose eval_index must be their position.

        Refuses an empty list, whose dimension is unknown.
        """
        if not points:
            raise ValueError("an empty list of points has no dimension")
        if [p.eval_index for p in points] != list(range(len(points))):
            raise ValueError("a trajectory's eval_index must count its rows from 0")
        return cls(
            xs=np.asarray([p.x for p in points], dtype=float).reshape(len(points), -1),
            fs=np.asarray([p.f for p in points], dtype=float),
            instance_id=np.asarray([p.instance_id for p in points], dtype=np.int64),
            **fields,
        )

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

    @property
    def points(self) -> list[EvaluatedPoint]:
        """Every row as a point, built on each access; each ``x`` is a row view."""
        return [
            EvaluatedPoint(x=x, f=f, eval_index=i, instance_id=j)
            for i, (x, f, j) in enumerate(zip(self.xs, self.fs.tolist(), self.instance_id.tolist()))
        ]

    def best(self) -> EvaluatedPoint:
        """Lowest-f point by ``fitness_key``: NaN ranks last, earliest eval_index wins ties."""
        if not len(self):
            raise ValueError("empty trajectory has no best point")
        i = int(np.argmin(fitness_keys(self.fs)))
        return EvaluatedPoint(self.xs[i], float(self.fs[i]), i, int(self.instance_id[i]))


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
    column, and ``xs``, ``fs`` and ``instance_id`` of different lengths:
    the reader would reject the first two files, and the last one would be
    cut to the shortest column.  The checks come before the file is
    opened, so a refused write leaves an existing file as it was.  The
    text is written one block of rows at a time (``_write_rows``).
    """
    if not len(trajectory):
        raise ValueError("refusing to write an empty trajectory")
    xs = np.asarray(trajectory.xs, dtype=float)
    fs = np.asarray(trajectory.fs, dtype=float)
    ids = np.asarray(trajectory.instance_id)
    if xs.ndim != 2 or not xs.shape[1]:
        raise ValueError(f"xs must be 2-D with at least one column, got shape {xs.shape}")
    if not len(xs) == len(fs) == len(ids):
        raise ValueError(
            f"xs, fs and instance_id must have one row per evaluation, "
            f"got {len(xs)}, {len(fs)} and {len(ids)}"
        )
    _write_rows(path, _header(xs.shape[1]), np.arange(len(xs)), ids, [xs, fs])


# the bytes of JSON numbers, the commas between them and the line ends
_NUMBER_BYTES = b"0123456789eE.+-,\n"


def _read_json_numbers(data: bytes) -> Trajectory | None:
    """The trajectory in ``data`` parsed by orjson, or None if that cannot be trusted.

    Only a file with a well-formed header and a non-empty body of
    ``_NUMBER_BYTES`` is tried.  The body is checked, then parsed, in
    blocks of about ``_READ_BLOCK_BYTES`` bytes (whole lines for the
    parse), never copied whole.  A block is kept only if one orjson call
    parses it, every row has the header's width (a blank line reads as an
    empty row), both integer columns parse as int64 (so ``1.0``, ``1e3``
    and integers outside int64 do not pass) and eval_index goes on
    counting the rows from 0.  JSON reads every other number as ``float``
    does, except a bare ``-0``: that is the int 0, not -0.0, so a file
    holding one is left to the other parser.  Each block goes straight
    into the preallocated columns, so the memory used besides ``data``
    and the result is one block's.
    """
    start = data.find(b"\n") + 1
    head = data[: start - 1] if start else b""
    dim = head.count(b",") - 2
    # a row per line end, and one more when the last line has none
    n = data.count(b"\n", start) + (not data.endswith(b"\n"))
    if dim < 1 or head != _header(dim).encode() or not n:
        return None
    # the byte check first, so that a NaN near the end costs no parsing
    blocks = range(start, len(data), _READ_BLOCK_BYTES)
    if any(data[i : i + _READ_BLOCK_BYTES].translate(None, _NUMBER_BYTES) for i in blocks):
        return None
    width = dim + 3
    xs, fs, instance_id = np.empty((n, dim)), np.empty(n), np.empty(n, dtype=np.int64)
    row = 0
    while start < len(data):
        # whole lines: up to the last line end in the block, or past the
        # block's end when one line is longer than a block
        stop = (
            data.rfind(b"\n", start, start + _READ_BLOCK_BYTES) + 1
            or data.find(b"\n", start + _READ_BLOCK_BYTES) + 1
            or len(data)
        )
        block = data[start:stop]
        start = stop
        if not block.endswith(b"\n"):
            block += b"\n"
        try:
            rows = orjson.loads(b"[[" + block[:-1].replace(b"\n", b"],[") + b"]]")
        except orjson.JSONDecodeError:
            return None
        if set(map(len, rows)) != {width}:
            return None
        end = row + len(rows)
        eval_index = np.array([r[0] for r in rows])
        ids = np.array([r[1] for r in rows])
        if (
            eval_index.dtype != np.int64
            or ids.dtype != np.int64
            or not np.array_equal(eval_index, np.arange(row, end))
        ):
            return None
        table = np.fromiter(chain.from_iterable(rows), float, len(rows) * width)
        table = table.reshape(-1, width)
        # only a zero can have been read from a bare -0
        if not table[:, 2:].all() and (b",-0," in block or b",-0\n" in block):
            return None
        xs[row:end], fs[row:end], instance_id[row:end] = table[:, 2:-1], table[:, -1], ids
        row = end
    return Trajectory(xs=xs, fs=fs, instance_id=instance_id)


def read_trajectory(path: str | Path) -> Trajectory:
    """Parse a trajectory CSV, validating layout and eval_index contiguity.

    A file whose body holds only JSON numbers is parsed one block of
    lines at a time, one orjson call per block, into preallocated columns
    (``_read_json_numbers``): besides the file's bytes and the result, it
    holds one block.  Any other file, or one those calls do not accept,
    is parsed one line at a time with ``int`` and ``float``, to the same
    bits, from its whole decoded text.  Blank lines are skipped.  A
    malformed file raises ``ParseError`` naming the first bad line: a
    wrong field count, a token ``int`` or ``float`` rejects, or an
    eval_index that breaks contiguity from 0, checked in that order.  An
    instance_id outside the int64 range is refused too.
    """
    data = Path(path).read_bytes()
    parsed = _read_json_numbers(data)
    if parsed is not None:
        return parsed
    # the text ``Path.read_text`` gives: the default encoding, universal newlines
    lines = io.TextIOWrapper(io.BytesIO(data)).read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, missing header")
    header = lines[0].split(",")
    if (
        len(header) < 4
        or header[0] != "eval_index"
        or header[1] != "instance_id"
        or header[-1] != "f"
        or header[2:-1] != [f"x{i}" for i in range(len(header) - 3)]
    ):
        raise ParseError(f"{path}: line 1: malformed header {lines[0]!r}")
    width = len(header)
    instance_id: list[int] = []
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
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
        if eval_index != len(instance_id):
            raise ParseError(
                f"{path}: line {lineno}: eval_index {eval_index} breaks contiguity "
                f"(expected {len(instance_id)})"
            )
        instance_id.append(j)
    try:
        ids = np.asarray(instance_id, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{path}: an instance_id is outside the int64 range") from None
    table = np.asarray(values, dtype=float).reshape(len(ids), width - 2)
    return Trajectory(xs=table[:, :-1].copy(), fs=table[:, -1].copy(), instance_id=ids)
