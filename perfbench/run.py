"""Benchmark of the divbatch pipeline: portfolio generation, batch selection, IO.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-d10 --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``), checks every
output, prints each metric by name with its unit, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off; with ``--trace 1`` they are the per-layer
ones, taken from a traced pass, together with the end-to-end breakdown of
the untraced passes made in the same run and the tracing overhead.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# untraced passes per run at least; a traced run makes at least one
# untraced and one traced pass
MIN_PASSES = 2

END_TO_END = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The end-to-end breakdown the untraced passes give, printed by every run
# and reported with the per-layer metrics of a traced run.  Entries a
# workload does not have read 0.
BREAKDOWN = {
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "speed": "ratio",
    "grid_s.ds": "s",
    "grid_s.cma": "s",
    "grid_s.random": "s",
    "ds_cell_ms.p50": "ms",
    "ds_cell_ms.tail": "ms",
    "ds_cell_ms.tail_pct": "%",
    "ds_cell_ms.samples": "count",
    "select_s.clearing": "s",
    "select_s.greedy": "s",
    "select_s.exact": "s",
    "ds_batch_loss.gmean": "loss",
    "ds_complete_share": "share",
    "exact_proved_share": "share",
    "failed_share": "share",
    "digest.changed": "count",
    "digest.checked": "count",
}

LAYERS = {
    "cma.ask_one.calls": "count",
    "cma.ask_one.busy_s": "s",
    "cma.ask_one.draws": "count",
    "cma.ask_one.clips": "count",
    "cma.draws_per_candidate": "ratio",
    "cma.tell.calls": "count",
    "cma.tell.busy_s": "s",
    "cma.tell.eigh_s": "s",
    "cma.tell.stop_s": "s",
    "cascade.filter.calls": "count",
    "cascade.filter.busy_s": "s",
    "cascade.filter.rejected": "count",
    "cascade.accept_ratio": "ratio",
    "cascade.run_ds.busy_s": "s",
    "cascade.run_ds.self_s": "s",
    "cascade.init.calls": "count",
    "cascade.init.busy_s": "s",
    "cascade.epochs": "count",
    "objectives.evaluate.calls": "count",
    "objectives.evaluate.busy_s": "s",
    "objectives.evaluate_many.rows": "count",
    "objectives.evaluate_many.busy_s": "s",
    "baselines.run_cma_single.busy_s": "s",
    "baselines.run_cma_single.self_s": "s",
    "baselines.run_random.busy_s": "s",
    "selection.clearing.calls": "count",
    "selection.clearing.busy_s": "s",
    "selection.greedy.calls": "count",
    "selection.greedy.busy_s": "s",
    "selection.exact.calls": "count",
    "selection.exact.busy_s": "s",
    "selection.exact.masks_s": "s",
    "selection.exact.search_s": "s",
    "selection.exact.proved": "count",
    "trajectory.write.calls": "count",
    "trajectory.write.busy_s": "s",
    "trajectory.write.bytes": "B",
    "trajectory.read.calls": "count",
    "trajectory.read.busy_s": "s",
    "trajectory.read.bytes": "B",
    "selection.write_batch.busy_s": "s",
    "harness.run_cell.busy_s": "s",
    "harness.run_cell.self_s": "s",
    "harness.persist_s": "s",
    "trace.overhead": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="first run seed (0: the acceptance grid)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up ``workload.SETUP_REPEATS`` times, then run passes until ``seconds`` are used.

    A pass starts only if the previous round suggests it ends in time,
    after the minimum is met.  Returns the set-up times, the untraced and
    traced passes, and the tracer of the last traced pass.
    """
    from speed import InterpreterReference, Timeline
    from tracing import Tracer

    work = OUT / "work" / workload.name
    setups = Timeline(InterpreterReference())
    for i in range(workload.SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        with setups.region(f"setup {i}"):
            ctx = workload.setup(seed, work, setups)
    deadline = time.perf_counter() + seconds
    plain, traced, tracer = [], [], None
    while True:
        start = time.perf_counter()
        plain.append(workload.run_pass(ctx))
        if trace:
            tracer = Tracer()
            traced.append(workload.run_pass(ctx, tracer))
        round_s = time.perf_counter() - start
        enough = traced if trace else len(plain) >= MIN_PASSES
        if enough and time.perf_counter() + round_s > deadline:
            break
    shutil.rmtree(work, ignore_errors=True)
    return setups, plain, traced, tracer


def breakdown(plain, passes) -> dict[str, float]:
    """The end-to-end breakdown: medians over the untraced passes."""
    out = {name: 0.0 for name in BREAKDOWN}
    out["wall_raw_s"] = statistics.median(p.wall_s for p in plain)
    out["speed"] = statistics.median(s for p in plain for s in p.speeds)
    for name in plain[0].parts:
        if name in out:
            out[name] = statistics.median(p.parts[name] for p in plain)
    cells = sorted(s for p in plain for s in p.ds_cell_s)
    if cells:
        out["ds_cell_ms.p50"] = 1000.0 * statistics.median(cells)
        out["ds_cell_ms.samples"] = len(cells)
    if len(cells) > 10:
        # the highest percentile that leaves at least 10 samples beyond it
        out["ds_cell_ms.tail"] = 1000.0 * cells[len(cells) - 11]
        out["ds_cell_ms.tail_pct"] = 100.0 * (len(cells) - 10) / len(cells)
    out.update(plain[0].quality)
    attempted = sum(p.attempted for p in passes)
    out["failed_share"] = sum(p.failed for p in passes) / attempted
    out["digest.changed"] = max(p.digest_changed for p in passes)
    out["digest.checked"] = plain[0].digest_checked
    return out


def layer_metrics(tracer, plain, traced) -> dict[str, float]:
    layers = tracer.layers()

    def get(name: str, key: str = "busy_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    counts = tracer.counts
    last = traced[-1]
    m = {}
    for name in ("cma.ask_one", "cma.tell", "cascade.filter", "cascade.init", "objectives.evaluate"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.busy_s"] = get(name)
    asks = m["cma.ask_one.calls"]
    m["cma.ask_one.draws"] = counts["cma.ask_one.draws"]
    m["cma.ask_one.clips"] = counts["cma.ask_one.clips"]
    m["cma.draws_per_candidate"] = m["cma.ask_one.draws"] / asks if asks else 0.0
    m["cma.tell.eigh_s"] = get("cma.eigh")
    m["cma.tell.stop_s"] = get("cma.stop")
    filtered = m["cascade.filter.calls"]
    m["cascade.filter.rejected"] = counts["cascade.filter.rejected"]
    m["cascade.accept_ratio"] = (filtered - m["cascade.filter.rejected"]) / filtered if filtered else 0.0
    m["cascade.run_ds.busy_s"] = get("cascade.run_ds")
    m["cascade.run_ds.self_s"] = get("cascade.run_ds", "self_s")
    runs = get("cascade.run_ds", "calls")
    m["cascade.epochs"] = m["cascade.init.calls"] / runs if runs else 0.0
    m["objectives.evaluate_many.rows"] = counts["objectives.evaluate_many.rows"]
    m["objectives.evaluate_many.busy_s"] = get("objectives.evaluate_many")
    m["baselines.run_cma_single.busy_s"] = get("baselines.run_cma_single")
    m["baselines.run_cma_single.self_s"] = get("baselines.run_cma_single", "self_s")
    m["baselines.run_random.busy_s"] = get("baselines.run_random")
    for method in ("clearing", "greedy", "exact"):
        m[f"selection.{method}.calls"] = get(f"selection.{method}", "calls")
        m[f"selection.{method}.busy_s"] = get(f"selection.{method}")
    m["selection.exact.masks_s"] = get("selection.exact.masks")
    m["selection.exact.search_s"] = m["selection.exact.busy_s"] - m["selection.exact.masks_s"]
    m["selection.exact.proved"] = last.exact_proved
    for op in ("write", "read"):
        m[f"trajectory.{op}.calls"] = get(f"trajectory.{op}", "calls")
        m[f"trajectory.{op}.busy_s"] = get(f"trajectory.{op}")
    m["trajectory.write.bytes"] = last.bytes_written
    m["trajectory.read.bytes"] = last.bytes_read
    m["selection.write_batch.busy_s"] = get("selection.write_batch")
    m["harness.run_cell.busy_s"] = get("harness.run_cell")
    m["harness.run_cell.self_s"] = get("harness.run_cell", "self_s")
    inside = tracer.children_of("harness.run_experiment")
    m["harness.persist_s"] = (
        get("harness.run_experiment")
        - inside.get("harness.run_cell", 0.0)
        - inside.get("bench.reference", 0.0)
        + get("harness.write_records_csv")
    )
    untraced = statistics.median(p.norm_wall_s for p in plain)
    m["trace.overhead"] = statistics.median(p.norm_wall_s for p in traced) / untraced - 1.0
    return m


def _show(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "divbatch" / "__init__.py").is_file():
        print(f"error: no divbatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment()
    setups, plain, traced, tracer = measure(workload, args.seed, args.seconds, bool(args.trace))
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    e2e = {
        "norm_wall_s": statistics.median(p.norm_wall_s for p in plain),
        "setup_s": statistics.median(setups.normalized.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = breakdown(plain, passes)
    extra["setup_raw_s"] = statistics.median(setups.raw.values())
    print(f"# {workload.name} seed={args.seed} passes={len(plain)} traced={len(traced)} env={json.dumps(env)}")
    _show("end to end", e2e, END_TO_END)
    _show("breakdown (untraced)", extra, BREAKDOWN)
    if args.trace:
        layers = layer_metrics(tracer, plain, traced)
        _show("layers (traced pass)", layers, LAYERS)
        children = tracer.children_of("cascade.run_ds")
        if children:
            parts = " + ".join(f"{name} {s:.3f}" for name, s in sorted(children.items()))
            print(f"# cascade.run_ds busy {layers['cascade.run_ds.busy_s']:.3f} s = "
                  f"self {layers['cascade.run_ds.self_s']:.3f} + {parts}")
        tracer.write(OUT / f"{workload.name}.trace.npz")
        reported = {**extra, **layers}
        units = {**BREAKDOWN, **LAYERS}
    else:
        reported, units = e2e, END_TO_END
    for problem in [p for run in passes for p in run.problems][:20]:
        print(f"# FAILED {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_raw_s": list(setups.raw.values()),
        "setup_s": list(setups.normalized.values()),
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_norm_wall_s": [p.norm_wall_s for p in plain],
        "traced_wall_s": [p.wall_s for p in traced],
        "end_to_end": e2e,
        "breakdown": extra,
        **result,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
