"""Command line interface.

Subcommands: ``run`` (generate portfolios and batches over seeds),
``select`` (re-select a batch from a stored trajectory), ``report``
(aggregate run records into CSV tables), and ``functions`` (list the
objective suite).  Exits 0 on success, including runs that merely record
failed cells; configuration and IO errors exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .cascade import CENTER_STRATEGIES
from .harness import (
    ALGORITHMS,
    SELECTORS,
    ExperimentConfig,
    export_plot_data,
    normalize_losses,
    read_records_dir,
    run_experiment,
    write_normalized_csv,
    write_records_csv,
)
from .objectives import function_registry
from .selection import write_batch
from .trajectory import _check_int, read_trajectory

__all__ = ["main"]


def _check_dmin(d_min: float) -> None:
    # the library takes d_min = 0; the CLI asks for a distance.  NaN and inf
    # slip past a "<= 0" check, and both make every pair infeasible
    if not (math.isfinite(d_min) and d_min > 0):
        raise ValueError(f"--dmin must be finite and positive, got {d_min}")


def _cmd_run(args: argparse.Namespace) -> int:
    _check_int("--runs", args.runs, 1)
    _check_dmin(args.dmin)
    cfg = ExperimentConfig(
        functions=[args.function],
        algorithms=[args.algo],
        seeds=list(range(args.seed, args.seed + args.runs)),
        dimension=args.dim,
        budget=args.budget,
        k=args.k,
        d_min=args.dmin,
        method=args.method,
        center_strategy=args.center_strategy,
        out_dir=args.out,
    )
    records = run_experiment(cfg)
    for r in records:
        status = "FAILED" if r.error else "complete" if r.complete else "incomplete"
        print(
            f"{r.function_id} {r.algorithm} seed={r.seed} {status} "
            f"leader_loss={r.leader_loss:.6g} batch_avg={r.batch_average():.6g}"
        )
    print(f"artifacts written under {args.out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    # every selector refuses a k below 1 before a batch is written
    _check_dmin(args.dmin)
    trajectory = read_trajectory(args.traj)
    batch = SELECTORS[args.method](trajectory, args.k, args.dmin)
    write_batch(batch, args.out)
    print(
        f"{args.method} selected {len(batch)}/{args.k} points "
        f"(complete={batch.complete}) -> {args.out}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_records_dir(args.input)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_records_csv(records, out)
    normalized = normalize_losses(records)
    normalized_path = out.with_name(out.stem + "_normalized" + out.suffix)
    write_normalized_csv(normalized, normalized_path)
    curves_path = out.with_name(out.stem + "_curves" + out.suffix)
    export_plot_data(records, curves_path)
    print(f"records: {out}")
    print(f"normalized: {normalized_path}")
    print(f"curves: {curves_path}")
    return 0


def _cmd_functions(_: argparse.Namespace) -> int:
    for fid, group, label in function_registry():
        print(f"{fid},{group},{label}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbatch",
        description="Diverse solution batches for black-box minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an algorithm over seeds and store artifacts")
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--function", required=True, help="objective id (see 'functions')")
    run.add_argument("--dim", type=int, required=True, help="problem dimension")
    run.add_argument("--budget", type=int, required=True, help="total objective evaluations")
    run.add_argument("--k", type=int, required=True, help="batch size")
    run.add_argument("--dmin", type=float, required=True, help="pairwise distance requirement")
    run.add_argument("--seed", type=int, required=True, help="first run seed")
    run.add_argument("--runs", type=int, default=1, help="number of seeds, consecutive from --seed")
    run.add_argument(
        "--center-strategy",
        choices=CENTER_STRATEGIES,
        default="population_best",
        help="tabu region center update rule (ds only)",
    )
    run.add_argument("--method", choices=sorted(SELECTORS), default="clearing",
                     help="batch selection method")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(handler=_cmd_run)

    select = sub.add_parser("select", help="select a batch from a stored trajectory")
    select.add_argument("--traj", required=True, help="trajectory CSV file")
    select.add_argument("--method", required=True, choices=sorted(SELECTORS))
    select.add_argument("--k", type=int, required=True)
    select.add_argument("--dmin", type=float, required=True)
    select.add_argument("--out", required=True, help="batch JSON file")
    select.set_defaults(handler=_cmd_select)

    report = sub.add_parser("report", help="aggregate run records into CSV tables")
    report.add_argument("--in", dest="input", required=True, help="experiment output directory")
    report.add_argument("--out", required=True, help="records CSV path")
    report.set_defaults(handler=_cmd_report)

    functions = sub.add_parser("functions", help="list objective ids and groups")
    functions.set_defaults(handler=_cmd_functions)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -inf or -1e3 for a flag unless it is
    # glued to its option, so "--dmin VALUE" (or "--dm VALUE", which
    # argparse also reads as --dmin) becomes "--dmin=VALUE"
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 3 and "--dmin".startswith(argv[i]):
            argv[i : i + 2] = [f"--dmin={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns errors into exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
