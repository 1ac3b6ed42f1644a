"""Command line interface tests, driven through main(argv)."""

from __future__ import annotations

import json

import pytest

from divbatch import function_ids, make_function, run_random, write_trajectory
from divbatch.cli import main


def run_args(out_dir, **overrides):
    flags = {
        "--algo": "random",
        "--function": "sphere",
        "--dim": "2",
        "--budget": "60",
        "--k": "2",
        "--dmin": "1.0",
        "--seed": "0",
        "--runs": "2",
        "--out": str(out_dir),
    }
    flags.update({k: str(v) for k, v in overrides.items()})
    argv = ["run"]
    for key, value in flags.items():
        argv.extend([key, value])
    return argv


def test_run_writes_artifacts(tmp_path, capsys):
    assert main(run_args(tmp_path / "out")) == 0
    out = capsys.readouterr().out
    assert "sphere random seed=0" in out and "seed=1" in out
    for seed in (0, 1):
        name = f"sphere__random__s{seed}"
        assert (tmp_path / "out" / "trajectories" / f"{name}.csv").exists()
        assert (tmp_path / "out" / "batches" / f"{name}.json").exists()
        assert (tmp_path / "out" / "records" / f"{name}.json").exists()


def test_run_ds_smoke(tmp_path, capsys):
    argv = run_args(tmp_path / "out", **{"--algo": "ds", "--budget": "80", "--runs": "1"})
    assert main(argv) == 0
    assert " complete " in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides",
    [
        {"--function": "no_such_function"},
        {"--dim": "1"},
        {"--budget": "0"},
        {"--k": "0"},
        {"--dmin": "0"},
        {"--runs": "0"},
    ],
)
def test_run_rejects_bad_config(tmp_path, capsys, overrides):
    # the library's config refuses a bad function, dimension, budget or k
    # with its own message; the CLI checks only --runs and --dmin itself
    messages = {
        "--function": "unknown function ids ['no_such_function']",
        "--dim": "dimension must be >= 2, got 1",
        "--budget": "budget must be >= 1, got 0",
        "--k": "k must be >= 1, got 0",
        "--dmin": "--dmin must be finite and positive, got 0.0",
        "--runs": "--runs must be >= 1, got 0",
    }
    (flag,) = overrides
    assert main(run_args(tmp_path / "out", **overrides)) == 1
    assert capsys.readouterr().err == f"error: {messages[flag]}\n"
    assert not (tmp_path / "out").exists()


# -inf, -1e3 and -1e-3 look like flags to argparse when they follow --dmin
@pytest.mark.parametrize("dmin", ["nan", "inf", "-inf", "-1e3", "-1e-3"])
def test_run_rejects_a_non_finite_dmin_before_running(tmp_path, capsys, dmin):
    argv = run_args(tmp_path / "out", **{"--algo": "ds", "--dmin": dmin, "--runs": "1"})
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --dmin must be finite and positive")
    assert not (tmp_path / "out").exists()


def test_run_with_failed_cell_still_exits_zero(tmp_path, capsys):
    argv = run_args(tmp_path / "out", **{"--algo": "ds", "--dmin": "50.0", "--runs": "1"})
    with pytest.warns(UserWarning):
        assert main(argv) == 0
    assert "FAILED" in capsys.readouterr().out


def test_run_reports_a_short_batch_as_incomplete_not_failed(tmp_path, capsys):
    # no three points of [-5, 5]^2 are pairwise 12 apart
    argv = run_args(tmp_path / "out", **{"--k": "3", "--dmin": "12.0", "--runs": "1"})
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "incomplete" in out and "FAILED" not in out
    record = json.loads((tmp_path / "out" / "records" / "sphere__random__s0.json").read_text())
    assert record["complete"] is False and record["error"] is False


def test_select_round_trip(tmp_path, capsys):
    fn = make_function("sphere", 2, 0)
    traj_path = tmp_path / "portfolio.csv"
    write_trajectory(run_random(fn, 50, seed=0), traj_path)
    batch_path = tmp_path / "batch.json"
    argv = [
        "select",
        "--traj", str(traj_path),
        "--method", "greedy",
        "--k", "3",
        "--dmin", "1.5",
        "--out", str(batch_path),
    ]
    assert main(argv) == 0
    assert "greedy selected" in capsys.readouterr().out
    payload = json.loads(batch_path.read_text())
    assert payload["method"] == "greedy"
    assert payload["k_requested"] == 3 and payload["d_min"] == 1.5
    assert set(payload["points"][0]) == {"eval_index", "x", "f"}


# -inf, -1e3 and -1e-3 look like flags to argparse when they follow --dmin
@pytest.mark.parametrize("dmin", ["nan", "inf", "-inf", "-1e3", "-1e-3"])
def test_select_rejects_a_non_finite_dmin(tmp_path, capsys, dmin):
    traj_path = tmp_path / "portfolio.csv"
    write_trajectory(run_random(make_function("sphere", 2, 0), 5, seed=0), traj_path)
    batch_path = tmp_path / "batch.json"
    argv = [
        "select",
        "--traj", str(traj_path),
        "--method", "clearing",
        "--k", "2",
        "--dmin", dmin,
        "--out", str(batch_path),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --dmin must be finite and positive")
    assert not batch_path.exists()


def test_select_rejects_a_k_below_one_before_writing(tmp_path, capsys):
    traj_path = tmp_path / "portfolio.csv"
    write_trajectory(run_random(make_function("sphere", 2, 0), 5, seed=0), traj_path)
    batch_path = tmp_path / "batch.json"
    argv = [
        "select",
        "--traj", str(traj_path),
        "--method", "clearing",
        "--k", "0",
        "--dmin", "1.0",
        "--out", str(batch_path),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"
    assert not batch_path.exists()


def test_select_missing_trajectory_fails(tmp_path, capsys):
    argv = [
        "select",
        "--traj", str(tmp_path / "missing.csv"),
        "--method", "clearing",
        "--k", "2",
        "--dmin", "1.0",
        "--out", str(tmp_path / "batch.json"),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_report_emits_three_tables(tmp_path, capsys):
    assert main(run_args(tmp_path / "out")) == 0
    capsys.readouterr()
    report_out = tmp_path / "tables" / "records.csv"
    report_out.parent.mkdir()
    # only the random baseline ran, so normalization warns about the
    # missing diversity-search denominator and skips the group
    with pytest.warns(UserWarning, match="no complete ds run"):
        assert main(["report", "--in", str(tmp_path / "out"), "--out", str(report_out)]) == 0
    out = capsys.readouterr().out
    assert "records:" in out and "normalized:" in out and "curves:" in out
    assert report_out.exists()
    assert (tmp_path / "tables" / "records_normalized.csv").exists()
    curves = (tmp_path / "tables" / "records_curves.csv").read_text().splitlines()
    assert curves[0].startswith("function,algorithm,n_complete")


def test_report_makes_the_directory_of_its_tables(tmp_path, capsys):
    # the README's ``report --out tables/records.csv`` runs where no tables/ is
    assert main(run_args(tmp_path / "out")) == 0
    report_out = tmp_path / "new" / "tables" / "records.csv"
    with pytest.warns(UserWarning, match="no complete ds run"):
        assert main(["report", "--in", str(tmp_path / "out"), "--out", str(report_out)]) == 0
    assert sorted(p.name for p in report_out.parent.iterdir()) == [
        "records.csv",
        "records_curves.csv",
        "records_normalized.csv",
    ]


def test_report_rejects_empty_directory(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_report_refuses_a_directory_of_two_protocols_and_writes_no_table(tmp_path, capsys):
    # ds at D=3, then random at D=2 with another k, then ds at D=2 over seed
    # 0's files: each run adds or overwrites cells of one directory
    mix = tmp_path / "mix"
    assert main(run_args(mix, **{"--algo": "ds", "--dim": 3, "--budget": 60})) == 0
    assert main(run_args(mix, **{"--budget": 50, "--k": 3})) == 0
    assert main(run_args(mix, **{"--algo": "ds", "--runs": 1})) == 0
    capsys.readouterr()
    tables = tmp_path / "tables" / "records.csv"
    assert main(["report", "--in", str(mix), "--out", str(tables)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: records disagree on dimension: 2 in sphere__ds__s0.json, ")
    assert "3 in sphere__ds__s1.json" in err
    assert not tables.parent.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", 3),
        ("budget", 61),
        ("k", 3),
        ("d_min", 1.5),
        ("method", "exact"),
        ("center_strategy", "best_so_far"),
    ],
)
def test_report_names_the_protocol_field_that_disagrees(tmp_path, capsys, field, value):
    assert main(run_args(tmp_path / "out")) == 0
    record = tmp_path / "out" / "records" / "sphere__random__s1.json"
    fields = json.loads(record.read_text())
    assert fields[field] != value
    record.write_text(json.dumps({**fields, field: value}))
    capsys.readouterr()
    tables = tmp_path / "out" / "records.csv"
    assert main(["report", "--in", str(tmp_path / "out"), "--out", str(tables)]) == 1
    assert capsys.readouterr().err == (
        f"error: records disagree on {field}: {fields[field]!r} in sphere__random__s0.json, "
        f"{value!r} in sphere__random__s1.json\n"
    )
    assert not tables.exists()


def test_functions_lists_whole_suite(capsys):
    assert main(["functions"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    ids = [line.split(",")[0] for line in lines]
    assert ids == list(function_ids())
    assert all(len(line.split(",")) == 3 for line in lines)


@pytest.mark.parametrize("flag", ["--dm", "--dmi"])
def test_an_abbreviated_dmin_also_takes_a_negative_value(tmp_path, capsys, flag):
    argv = run_args(tmp_path / "out", **{"--runs": "1"})
    argv[argv.index("--dmin")] = flag
    argv[argv.index(flag) + 1] = "-1e3"
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --dmin must be finite and positive")
    assert not (tmp_path / "out").exists()
