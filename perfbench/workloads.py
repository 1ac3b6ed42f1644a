"""The benchmark's workloads, their output checks and their golden digests.

Every workload drives the program through the public API of
``divbatch.harness``, ``divbatch.selection`` and ``divbatch.trajectory``,
the way the ``divbatch`` command line does, in one process with one
worker.  ``setup`` imports the package afresh and prepares the inputs;
``run_pass`` runs the timed phase once and checks every output.

Two probes are always installed while a pass runs, because the output
checks need them: a counting proxy around each objective the harness
creates, and a wrapper around the harness's per-cell function that keeps
the cell's wall time and outputs.  Both cost a few attribute lookups per
call.  A traced pass additionally wraps every layer boundary in spans.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import InterpreterReference, Timeline, VectorReference
from tracing import Patches, Tracer

GOLDEN = Path(__file__).resolve().parent / "golden" / "grid-d10.sha256"
# clearing runs before exact, which is checked against it
SELECTORS = ("clearing", "greedy", "exact")


def import_program():
    """Import the ``divbatch`` package afresh and return it.

    Dropping the cached modules first makes the import part of every
    set-up, so work the package does at import time shows in ``setup_s``.
    """
    for name in [m for m in sys.modules if m == "divbatch" or m.startswith("divbatch.")]:
        del sys.modules[name]
    return importlib.import_module("divbatch")


class CountingObjective:
    """Delegates to an objective and counts the evaluations asked of it."""

    def __init__(self, fn, tracer: Tracer | None = None):
        self._fn = fn
        self.evals = 0
        self.function_id = fn.function_id
        self.dimension = fn.dimension
        self.lower_bounds = fn.lower_bounds
        self.upper_bounds = fn.upper_bounds
        if tracer is not None:
            self.evaluate = tracer.span("objectives.evaluate", self.evaluate)
            self.evaluate_many = tracer.span(
                "objectives.evaluate_many",
                self.evaluate_many,
                on_result=lambda fs: tracer.count("objectives.evaluate_many.rows", len(fs)),
            )

    def evaluate(self, x):
        self.evals += 1
        return self._fn.evaluate(x)

    def evaluate_many(self, xs):
        fs = self._fn.evaluate_many(xs)
        self.evals += len(fs)
        return fs

    def __getattr__(self, name):
        return getattr(self._fn, name)


@dataclass
class Cell:
    algorithm: str
    seconds: float
    # index of the speed sample taken just before the cell
    sample: int
    record: object
    trajectory: object
    batch: object
    evals: int


class CellProbe:
    """Keeps every grid cell's wall time, outputs and evaluation count.

    Each cell starts a new timeline segment, so the speed reference is
    sampled between cells, and a cell's latency is normalized by the two
    samples around it.
    """

    def __init__(self, timeline: Timeline, tracer: Tracer | None):
        self.timeline = timeline
        self.tracer = tracer
        self.cells: list[Cell] = []
        self._objective: CountingObjective | None = None

    def install(self, patches: Patches, harness) -> None:
        def make_function_probe(make_function):
            def make(*args, **kwargs):
                self._objective = CountingObjective(make_function(*args, **kwargs), self.tracer)
                return self._objective

            return make

        def run_cell_probe(run_cell):
            def run(cfg, function_id, algorithm, seed):
                self.timeline.split()
                sample = len(self.timeline.samples) - 1
                start = time.perf_counter()
                record, trajectory, batch = run_cell(cfg, function_id, algorithm, seed)
                seconds = time.perf_counter() - start
                self.cells.append(
                    Cell(algorithm, seconds, sample, record, trajectory, batch, self._objective.evals)
                )
                return record, trajectory, batch

            return run

        patches.wrap(harness, "make_function", make_function_probe)
        patches.wrap(harness, "_run_cell", run_cell_probe)


def install_spans(patches: Patches, program, tracer: Tracer) -> None:
    """Wrap each layer boundary of the program in a span or counter."""
    harness, cascade, baselines, cma = (
        program.harness, program.cascade, program.baselines, program.cma
    )
    span = tracer.span

    def named(name, on_result=None):
        return lambda fn: span(name, fn, on_result)

    def count_rejection(clear: bool) -> None:
        if not clear:
            tracer.count("cascade.filter.rejected")

    patches.wrap(harness, "run_experiment", named("harness.run_experiment"))
    patches.wrap(harness, "_run_cell", named("harness.run_cell"))
    patches.wrap(harness, "write_records_csv", named("harness.write_records_csv"))
    patches.wrap(harness, "run_ds", named("cascade.run_ds"))
    patches.wrap(harness, "run_cma_single", named("baselines.run_cma_single"))
    patches.wrap(harness, "run_random", named("baselines.run_random"))
    patches.wrap(harness, "write_trajectory", named("trajectory.write"))
    patches.wrap(harness, "write_batch", named("selection.write_batch"))
    for method in ("clearing", "greedy", "exact"):
        patches.wrap(harness.SELECTORS, method, named(f"selection.{method}"))
    patches.wrap(program.selection, "_compat_masks", named("selection.exact.masks"))
    patches.wrap(program.selection, "write_batch", named("selection.write_batch"))
    patches.wrap(program.trajectory, "read_trajectory", named("trajectory.read"))
    patches.wrap(cascade, "init_diverse_means", named("cascade.init"))
    patches.wrap(cascade, "_clear_of", named("cascade.filter", count_rejection))
    for module in (cascade, baselines):
        patches.wrap(module, "ask_one", named("cma.ask_one"))
        patches.wrap(module, "tell", named("cma.tell"))
    patches.wrap(cma, "_refresh_eigensystem", named("cma.eigh"))
    patches.wrap(cma, "should_stop", named("cma.stop"))
    box = program.boxes.Box
    patches.wrap(box, "contains", lambda fn: tracer.count_under("cma.ask_one.draws", "cma.ask_one", fn))
    patches.wrap(box, "clip", lambda fn: tracer.count_under("cma.ask_one.clips", "cma.ask_one", fn))


@dataclass
class PassResult:
    """One timed pass: its wall time, breakdown, samples and check outcome."""

    wall_s: float = 0.0
    norm_wall_s: float = 0.0
    speeds: list[float] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    ds_cell_s: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest_changed: int = 0
    digest_checked: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    exact_proved: int = 0

    def add_times(self, *timelines: Timeline) -> None:
        for timeline in timelines:
            self.parts.update(timeline.normalized)
            self.wall_s += sum(timeline.raw.values())
            self.norm_wall_s += sum(timeline.normalized.values())
            self.speeds += [timeline.nominal_s / t for t in timeline.samples]

    def add_job(self, job: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{job}: {'; '.join(problems)}")


def batch_problems(program, batch, d_min: float, portfolio) -> list[str]:
    if batch is None or not batch.points:
        return ["no batch"]
    if not program.verify_batch(batch, d_min, portfolio):
        return ["batch violates d_min or the leader rule"]
    return []


def trajectory_problems(trajectory, length: int) -> list[str]:
    if trajectory is None:
        return ["generation raised"]
    problems = []
    if len(trajectory) != length:
        problems.append(f"{len(trajectory)} points, expected {length}")
    if [p.eval_index for p in trajectory.points] != list(range(len(trajectory))):
        problems.append("eval_index not contiguous from 0")
    return problems


def exact_problems(exact, clearing) -> list[str]:
    """Exact starts from the clearing batch, so it is never smaller or, at equal size, worse."""
    if clearing is None:
        return []
    if len(exact) < len(clearing) or (
        len(exact) == len(clearing)
        and exact.fitness_sum() > clearing.fitness_sum() + 1e-9 * abs(clearing.fitness_sum())
    ):
        return ["worse than the clearing batch"]
    return []


def file_digests(root: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for pattern in patterns
        for path in sorted(root.glob(pattern))
    }


def read_digests(path: Path) -> dict[str, str]:
    """``<sha256>  <relative path>`` lines, as ``sha256sum`` writes them."""
    digests = {}
    for line in path.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        digests[name] = digest
    return digests


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


@dataclass(frozen=True)
class Grid:
    """A (function x algorithm x seed) grid persisted like ``divbatch run``.

    Every cell selects its batch with ``clearing``, the harness default.
    The ``--seed`` argument is the first run seed; the grid uses
    ``n_seeds`` consecutive seeds from it, so seed 0 is the acceptance grid.
    Outputs are compared with the ``golden`` digests when there are any.
    """

    name: str
    algorithms: tuple[str, ...]
    n_seeds: int
    dimension: int
    budget: int
    k: int
    d_min: float
    golden: Path | None = None

    DIGESTED = ("trajectories/*.csv", "batches/*.json")
    # set-up only imports the package and builds configs, about 30 ms, so
    # it is repeated often enough for a stable median
    SETUP_REPEATS = 25

    def seeds(self, seed: int) -> list[int]:
        return list(range(seed, seed + self.n_seeds))

    def setup(self, seed: int, work: Path, timeline: Timeline | None = None) -> dict:
        program = import_program()
        configs = [
            program.harness.ExperimentConfig(
                functions=program.function_ids(),
                algorithms=[algorithm],
                seeds=self.seeds(seed),
                dimension=self.dimension,
                budget=self.budget,
                k=self.k,
                d_min=self.d_min,
                out_dir=work,
                workers=1,
            )
            for algorithm in self.algorithms
        ]
        golden = read_digests(self.golden) if self.golden is not None else {}
        outputs = {
            f"{sub}/{fid}__{algorithm}__s{s}.{ext}"
            for fid in program.function_ids()
            for algorithm in self.algorithms
            for s in self.seeds(seed)
            for sub, ext in (("trajectories", "csv"), ("batches", "json"))
        }
        expected = {name: digest for name, digest in golden.items() if name in outputs}
        return {"program": program, "configs": configs, "expected": expected, "work": work}

    def run_pass(self, ctx: dict, tracer: Tracer | None = None) -> PassResult:
        program, work = ctx["program"], ctx["work"]
        harness = program.harness
        shutil.rmtree(work, ignore_errors=True)
        result = PassResult()
        timeline = Timeline(InterpreterReference())
        if tracer is not None:
            timeline.reference = tracer.span("bench.reference", timeline.reference)
        records = []
        for cfg in ctx["configs"]:
            algorithm = cfg.algorithms[0]
            probe = CellProbe(timeline, tracer)
            patches = Patches()
            if tracer is not None:
                install_spans(patches, program, tracer)
            probe.install(patches, harness)
            try:
                with timeline.region(f"grid_s.{algorithm}"):
                    records += harness.run_experiment(cfg)
                if algorithm == self.algorithms[-1]:
                    with timeline.region("records_s"):
                        harness.write_records_csv(records, work / "records.csv")
            except Exception as exc:  # noqa: BLE001 - counted as failed jobs
                # the harness catches generation errors; anything else
                # aborts the column, so every cell of it fails
                traceback.print_exc()
                for fid in cfg.functions:
                    for s in cfg.seeds:
                        result.add_job(f"{fid}/{algorithm}/s{s}", [f"raised {exc!r}"])
                continue
            finally:
                patches.restore()
            self._check_cells(program, probe.cells, timeline, result)
        result.add_times(timeline)
        result.bytes_written = sum(p.stat().st_size for p in (work / "trajectories").glob("*.csv"))
        ds = [r for r in records if r.algorithm == "ds"]
        result.quality = {
            "ds_batch_loss.gmean": geometric_mean([r.batch_average() for r in ds if r.batch_losses]),
            "ds_complete_share": sum(r.complete for r in ds) / len(ds) if ds else 0.0,
        }
        produced = file_digests(work, self.DIGESTED)
        expected = ctx["expected"]
        result.digest_checked = len(expected)
        result.digest_changed = sum(produced.get(n) != d for n, d in expected.items())
        return result

    def _check_cells(self, program, cells: list[Cell], timeline: Timeline, result: PassResult) -> None:
        for cell in cells:
            problems = trajectory_problems(cell.trajectory, self.budget)
            if cell.evals != self.budget:
                problems.append(f"objective evaluated {cell.evals} times, budget {self.budget}")
            if cell.trajectory is not None:
                problems += batch_problems(program, cell.batch, self.d_min, cell.trajectory)
            r = cell.record
            result.add_job(f"{r.function_id}/{r.algorithm}/s{r.seed}", problems)
            if cell.algorithm == "ds":
                result.ds_cell_s.append(cell.seconds * timeline.scale(cell.sample))


@dataclass(frozen=True)
class Reselect:
    """Re-selection of stored portfolios, as ``divbatch select`` does it.

    Set-up runs every algorithm on every function for ``points``
    evaluations (seeded by ``--seed``) and stores the trajectory CSVs.
    Several functions average out how much selection work one seed's
    portfolios happen to need.
    Each timed job reads one CSV, selects a batch with one selector and
    writes the batch JSON.
    """

    name: str
    functions: tuple[str, ...]
    algorithms: tuple[str, ...]
    points: int
    dimension: int
    k: int
    d_min: float

    SETUP_REPEATS = 3

    def setup(self, seed: int, work: Path, timeline: Timeline | None = None) -> dict:
        """Store the portfolios; ``timeline``, when given, is split between cells."""
        program = import_program()
        cfg = program.harness.ExperimentConfig(
            functions=list(self.functions),
            algorithms=list(self.algorithms),
            seeds=[seed],
            dimension=self.dimension,
            budget=self.points,
            k=self.k,
            d_min=self.d_min,
            out_dir=work / "portfolios",
            workers=1,
        )
        patches = Patches()
        if timeline is not None:

            def split_before(run_cell):
                def run(*args):
                    timeline.split()
                    return run_cell(*args)

                return run

            patches.wrap(program.harness, "_run_cell", split_before)
        try:
            program.harness.run_experiment(cfg)
        finally:
            patches.restore()
        portfolios = sorted((work / "portfolios" / "trajectories").glob("*.csv"))
        expected = len(self.functions) * len(self.algorithms)
        if len(portfolios) != expected:
            raise RuntimeError(f"set-up stored {len(portfolios)} portfolios, expected {expected}")
        return {"program": program, "portfolios": portfolios, "work": work}

    def run_pass(self, ctx: dict, tracer: Tracer | None = None) -> PassResult:
        program, work = ctx["program"], ctx["work"]
        harness, selection, trajectory = program.harness, program.selection, program.trajectory
        batches_dir = work / "batches"
        shutil.rmtree(batches_dir, ignore_errors=True)
        batches_dir.mkdir(parents=True)
        result = PassResult()
        # exact is mostly mask building, vectorized over rows; the other
        # jobs run in the interpreter
        vector, interpreter = Timeline(VectorReference()), Timeline(InterpreterReference())
        patches = Patches()
        if tracer is not None:
            for timeline in (vector, interpreter):
                timeline.reference = tracer.span("bench.reference", timeline.reference)
            install_spans(patches, program, tracer)
        try:
            for path in ctx["portfolios"]:
                batches = {}
                for method in SELECTORS:
                    timeline = vector if method == "exact" else interpreter
                    try:
                        with timeline.region(f"select_s.{method}"):
                            portfolio = trajectory.read_trajectory(path)
                            batch = harness.SELECTORS[method](portfolio, self.k, self.d_min)
                            selection.write_batch(batch, batches_dir / f"{path.stem}__{method}.json")
                    except Exception as exc:  # noqa: BLE001 - counted as a failed job
                        traceback.print_exc()
                        result.add_job(f"{path.stem}/{method}", [f"raised {exc!r}"])
                        continue
                    result.bytes_read += path.stat().st_size
                    problems = trajectory_problems(portfolio, self.points)
                    problems += batch_problems(program, batch, self.d_min, portfolio)
                    if method == "exact":
                        result.exact_proved += bool(batch.proved_optimal)
                        problems += exact_problems(batch, batches.get("clearing"))
                    result.add_job(f"{path.stem}/{method}", problems)
                    batches[method] = batch
        finally:
            patches.restore()
        result.add_times(vector, interpreter)
        result.quality = {"exact_proved_share": result.exact_proved / len(ctx["portfolios"])}
        return result


WORKLOADS = {
    w.name: w
    for w in (
        Grid(
            "grid-d10",
            ("ds", "random", "cma"),
            n_seeds=5,
            dimension=10,
            budget=1000,
            k=5,
            d_min=10.0,
            golden=GOLDEN,
        ),
        Grid("grid-d40-loose", ("ds", "cma"), n_seeds=2, dimension=40, budget=2000, k=5, d_min=2.0),
        Reselect(
            "reselect",
            ("rastrigin_sep", "sphere", "discus"),
            ("ds", "cma", "random"),
            points=3000,
            dimension=10,
            k=5,
            d_min=10.0,
        ),
    )
}
