"""Evaluated-point records and their CSV persistence.

A trajectory is the full, ordered evaluation history of one optimizer run:
``eval_index`` counts objective evaluations from 0 and ``instance_id``
identifies the producing optimizer instance (-1 for producers without
instances, e.g. random sampling).  The CSV layout is
``eval_index,instance_id,x0,...,x{D-1},f`` with floats written in shortest
round-trip form, so write/read is lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "EvaluatedPoint",
    "ParseError",
    "Trajectory",
    "fitness_key",
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
        return (
            self.eval_index == other.eval_index
            and self.instance_id == other.instance_id
            and self.f == other.f
            and np.array_equal(self.x, other.x)
        )


def fitness_key(p: EvaluatedPoint) -> tuple[float, int]:
    """Total order on points: lower f first, NaN ranked as +inf, then eval_index."""
    return (math.inf if math.isnan(p.f) else p.f, p.eval_index)


@dataclass(eq=False)
class Trajectory:
    """Ordered evaluation history of a single run."""

    points: list[EvaluatedPoint]
    function_id: str = ""
    algorithm_id: str = ""
    config: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.points == other.points

    def xs(self) -> np.ndarray:
        return np.asarray([p.x for p in self.points])

    def fs(self) -> np.ndarray:
        return np.asarray([p.f for p in self.points])

    def best(self) -> EvaluatedPoint:
        """Lowest-f point by ``fitness_key``: NaN ranks last, earliest eval_index wins ties."""
        if not self.points:
            raise ValueError("empty trajectory has no best point")
        return min(self.points, key=fitness_key)


def _header(dimension: int) -> str:
    coords = ",".join(f"x{i}" for i in range(dimension))
    return f"eval_index,instance_id,{coords},f"


def write_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    """Write points as CSV; floats keep full precision via repr."""
    if not trajectory.points:
        raise ValueError("refusing to write an empty trajectory")
    dim = trajectory.points[0].x.shape[0]
    lines = [_header(dim)]
    for p in trajectory.points:
        coords = ",".join(repr(float(v)) for v in p.x)
        lines.append(f"{p.eval_index},{p.instance_id},{coords},{repr(float(p.f))}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path: str | Path) -> Trajectory:
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
    return Trajectory(points=points)
