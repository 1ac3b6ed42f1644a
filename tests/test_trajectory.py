"""Trajectory CSV round-trip and validation tests."""

from __future__ import annotations

import numpy as np
import pytest

from divbatch import EvaluatedPoint, ParseError, Trajectory, read_trajectory, write_trajectory


def random_trajectory(n, dim, seed=0, instance_id=0):
    rng = np.random.default_rng(seed)
    points = [
        EvaluatedPoint(
            x=rng.uniform(-5, 5, dim) * 10.0 ** rng.integers(-12, 4),
            f=float(rng.normal() * 10.0 ** rng.integers(-9, 9)),
            eval_index=i,
            instance_id=instance_id,
        )
        for i in range(n)
    ]
    return Trajectory(points=points)


def test_round_trip_is_bit_exact(tmp_path):
    traj = random_trajectory(1000, 10, seed=3)
    path = tmp_path / "t.csv"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert back == traj
    assert np.array_equal(back.xs(), traj.xs())
    assert np.array_equal(back.fs(), traj.fs())


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


def test_empty_trajectory_is_refused(tmp_path):
    with pytest.raises(ValueError):
        write_trajectory(Trajectory(points=[]), tmp_path / "t.csv")


def test_missing_header_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,1.0,2.0,3.0\n")
    with pytest.raises(ParseError, match="line 1"):
        read_trajectory(path)


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
    pts = [
        EvaluatedPoint(x=np.zeros(2), f=1.0, eval_index=0, instance_id=0),
        EvaluatedPoint(x=np.ones(2), f=0.5, eval_index=1, instance_id=0),
        EvaluatedPoint(x=np.full(2, 2.0), f=0.5, eval_index=2, instance_id=0),
    ]
    assert Trajectory(points=pts).best().eval_index == 1


def test_best_of_empty_raises():
    with pytest.raises(ValueError):
        Trajectory(points=[]).best()


def test_trajectory_equality_ignores_metadata():
    a = random_trajectory(5, 2, seed=1)
    b = random_trajectory(5, 2, seed=1)
    b.function_id = "whatever"
    b.algorithm_id = "other"
    assert a == b
    c = random_trajectory(5, 2, seed=2)
    assert a != c


def test_a_nan_fitness_point_equals_a_copy_of_itself():
    point = EvaluatedPoint(x=np.zeros(2), f=float("nan"), eval_index=0, instance_id=0)
    copy = EvaluatedPoint(x=point.x.copy(), f=float("nan"), eval_index=0, instance_id=0)
    assert point == point
    assert point == copy
    assert Trajectory(points=[point]) == Trajectory(points=[copy])
    assert point != EvaluatedPoint(x=np.zeros(2), f=0.0, eval_index=0, instance_id=0)


def test_negative_instance_ids_survive_round_trip(tmp_path):
    traj = random_trajectory(5, 2, seed=1, instance_id=-1)
    path = tmp_path / "t.csv"
    write_trajectory(traj, path)
    assert all(p.instance_id == -1 for p in read_trajectory(path).points)
