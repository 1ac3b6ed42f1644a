"""Row-at-a-time oracles for trajectory CSV IO.

``write_trajectory_reference`` formats one ``EvaluatedPoint`` per line and
``read_trajectory_reference`` parses one line into one ``EvaluatedPoint``,
checking each line in order.  The columnar writer must give the same bytes
and the columnar reader the same bits and the same ``ParseError`` line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from divbatch import EvaluatedPoint, ParseError


def write_trajectory_reference(points: list[EvaluatedPoint], path: str | Path) -> None:
    """Write points as CSV; floats keep full precision via repr."""
    if not points:
        raise ValueError("refusing to write an empty trajectory")
    dim = points[0].x.shape[0]
    coords = ",".join(f"x{i}" for i in range(dim))
    lines = [f"eval_index,instance_id,{coords},f"]
    for p in points:
        coords = ",".join(repr(float(v)) for v in p.x)
        lines.append(f"{p.eval_index},{p.instance_id},{coords},{repr(float(p.f))}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_reference(path: str | Path) -> list[EvaluatedPoint]:
    """Parse a trajectory CSV, validating layout and eval_index contiguity."""
    text = Path(path).read_text()
    lines = text.splitlines()
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
    dim = len(header) - 3
    points: list[EvaluatedPoint] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        tokens = line.split(",")
        if len(tokens) != dim + 3:
            raise ParseError(f"{path}: line {lineno}: expected {dim + 3} fields, got {len(tokens)}")
        try:
            eval_index = int(tokens[0])
            instance_id = int(tokens[1])
            x = np.asarray([float(t) for t in tokens[2:-1]])
            f = float(tokens[-1])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if eval_index != len(points):
            raise ParseError(
                f"{path}: line {lineno}: eval_index {eval_index} breaks contiguity "
                f"(expected {len(points)})"
            )
        points.append(EvaluatedPoint(x=x, f=f, eval_index=eval_index, instance_id=instance_id))
    return points


def column_bits(trajectory) -> tuple[bytes, bytes, list[int], tuple[int, ...]]:
    """Every stored bit of a trajectory's columns, and the shape of ``xs``."""
    xs = np.asarray(trajectory.xs, dtype=float)
    fs = np.asarray(trajectory.fs, dtype=float)
    return xs.tobytes(), fs.tobytes(), [int(i) for i in trajectory.instance_id], xs.shape
