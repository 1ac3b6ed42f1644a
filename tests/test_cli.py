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


def files_of(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_refuses_a_second_protocol_and_changes_no_file(tmp_path, capsys):
    # ds at D=3, then random at D=2 with another k, then ds at D=2 over seed
    # 0's cell: the records already in a directory fix its protocol
    mix = tmp_path / "mix"
    assert main(run_args(mix, **{"--algo": "ds", "--dim": 3, "--budget": 60})) == 0
    before = files_of(mix)
    capsys.readouterr()
    assert main(run_args(mix, **{"--budget": 50, "--k": 3})) == 1
    assert capsys.readouterr().err == (
        "error: records disagree on dimension: 3 in sphere__ds__s0.json, "
        "2 in sphere__random__s0.json\n"
    )
    assert main(run_args(mix, **{"--algo": "ds", "--runs": 1})) == 1
    assert capsys.readouterr().err.startswith("error: records disagree on dimension: 3 in ")
    assert files_of(mix) == before
    # the same protocol may rerun a cell or add one
    assert main(run_args(mix, **{"--algo": "ds", "--dim": 3, "--budget": 60, "--runs": 3})) == 0
    assert {name: files_of(mix)[name] for name in before} == before
    assert len(files_of(mix)) == len(before) + 3


def test_run_refuses_a_second_ds_center_strategy(tmp_path, capsys):
    out = tmp_path / "out"
    ds = {"--algo": "ds", "--runs": 1}
    assert main(run_args(out, **ds)) == 0
    capsys.readouterr()
    assert main(run_args(out, **ds, **{"--seed": 1, "--center-strategy": "best_so_far"})) == 1
    assert capsys.readouterr().err == (
        "error: records disagree on center_strategy: 'population_best' in sphere__ds__s0.json, "
        "'best_so_far' in sphere__ds__s1.json\n"
    )
    assert sorted(p.name for p in (out / "records").iterdir()) == ["sphere__ds__s0.json"]


def test_report_takes_other_algorithms_run_under_two_center_strategies(tmp_path, capsys):
    # only ds reads the strategy, so the other algorithms' records hold none
    out = tmp_path / "out"
    assert main(run_args(out, **{"--runs": 1})) == 0
    other = {"--seed": 1, "--runs": 1, "--center-strategy": "best_so_far"}
    assert main(run_args(out, **other)) == 0
    tables = tmp_path / "records.csv"
    with pytest.warns(UserWarning, match="no complete ds run"):
        assert main(["report", "--in", str(out), "--out", str(tables)]) == 0
    lines = tables.read_text().splitlines()
    column = lines[0].split(",").index("center_strategy")
    assert [line.split(",")[column] for line in lines[1:]] == ["", ""]


def test_report_refuses_a_directory_of_two_protocols_and_writes_no_table(tmp_path, capsys):
    # a record of another protocol, copied in by hand: run would refuse it
    mix = tmp_path / "mix"
    assert main(run_args(mix, **{"--algo": "ds", "--dim": 3, "--budget": 60})) == 0
    assert main(run_args(tmp_path / "other", **{"--runs": 1, "--budget": 50, "--k": 3})) == 0
    record = "sphere__random__s0.json"
    (mix / "records" / record).write_bytes((tmp_path / "other" / "records" / record).read_bytes())
    capsys.readouterr()
    tables = tmp_path / "tables" / "records.csv"
    assert main(["report", "--in", str(mix), "--out", str(tables)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: records disagree on dimension: 3 in sphere__ds__s0.json, "
        "2 in sphere__random__s0.json\n"
    )
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
    # ds records, the only ones that hold a center strategy
    assert main(run_args(tmp_path / "out", **{"--algo": "ds"})) == 0
    record = tmp_path / "out" / "records" / "sphere__ds__s1.json"
    fields = json.loads(record.read_text())
    assert fields[field] != value
    record.write_text(json.dumps({**fields, field: value}))
    capsys.readouterr()
    tables = tmp_path / "out" / "records.csv"
    assert main(["report", "--in", str(tmp_path / "out"), "--out", str(tables)]) == 1
    assert capsys.readouterr().err == (
        f"error: records disagree on {field}: {fields[field]!r} in sphere__ds__s0.json, "
        f"{value!r} in sphere__ds__s1.json\n"
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
