"""The program attributes the benchmark's traced pass wraps must exist.

``perfbench/workloads.install_spans`` replaces module attributes of
``divbatch`` by name (``cascade.ask_one``, ``cascade._clear_of``,
``cascade.tell``, ``baselines.ask_one``, ``baselines.tell``,
``selection._compat_masks``, the exact search's row builder, and more).  A
simplification that deletes or renames one of them fails here instead of
breaking ``perfbench/run.py --trace 1``.  ``tell`` must also keep calling
``_refresh_eigensystem`` and ``should_stop`` through the module's names,
or the traced pass's ``cma.eigh`` and ``cma.stop`` counters read 0.

The traced pass counts ``cascade.init`` spans as the run's epochs, so
``run_ds`` must start every epoch through the module's
``init_diverse_means`` name.

The grid workloads time ``harness._run_cell`` as the cell and read the
rest of ``harness.run_experiment`` as persistence, so the cell's files
must be written outside ``_run_cell``, through the harness's own
``write_trajectory`` and ``write_batch`` names.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import divbatch
from cascade_checks import FlatFunction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_hook_installs_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Patches, Tracer
    from workloads import install_spans

    before = {name: getattr(divbatch.cascade, name) for name in ("ask_one", "_clear_of", "tell")}
    compat_masks = divbatch.selection._compat_masks
    patches = Patches()
    try:
        install_spans(patches, divbatch, Tracer())
        assert divbatch.cascade._clear_of is not before["_clear_of"]
        assert divbatch.selection._compat_masks is not compat_masks
    finally:
        patches.restore()
    assert {name: getattr(divbatch.cascade, name) for name in before} == before
    assert divbatch.selection._compat_masks is compat_masks


def test_one_tell_records_one_eigh_span_and_one_stop_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Patches, Tracer
    from workloads import install_spans

    state = divbatch.init_cma(2, np.zeros(2), seed=0)
    xs = divbatch.ask(state, None, 6)
    tracer, patches = Tracer(), Patches()
    try:
        install_spans(patches, divbatch, tracer)
        divbatch.cascade.tell(state, xs, np.arange(6.0))
    finally:
        patches.restore()
    calls = {name: layer["calls"] for name, layer in tracer.layers().items()}
    assert calls["cma.tell"] == calls["cma.eigh"] == calls["cma.stop"] == 1


def test_a_traced_run_records_one_init_span_per_epoch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Patches, Tracer
    from workloads import install_spans

    # a flat objective stops every instance after one generation
    tracer, patches = Tracer(), Patches()
    try:
        install_spans(patches, divbatch, tracer)
        _, log = divbatch.cascade.run_ds(
            divbatch.DsConfig(k=2, d_min=1.0, budget=60), FlatFunction(2), return_log=True
        )
    finally:
        patches.restore()
    assert len(log.epoch_starts) > 1
    assert tracer.layers()["cascade.init"]["calls"] == len(log.epoch_starts)


def test_a_grid_writes_its_files_outside_the_probed_cell(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from speed import InterpreterReference, Timeline
    from tracing import Patches, Tracer
    from workloads import CellProbe, install_spans

    cfg = divbatch.ExperimentConfig(
        functions=["sphere"],
        algorithms=["ds"],
        seeds=[0, 1],
        dimension=2,
        budget=80,
        k=2,
        d_min=1.0,
        out_dir=tmp_path,
    )
    tracer, patches = Tracer(), Patches()
    probe = CellProbe(Timeline(InterpreterReference()), tracer)
    try:
        install_spans(patches, divbatch, tracer)
        probe.install(patches, divbatch.harness)
        divbatch.harness.run_experiment(cfg)
    finally:
        patches.restore()

    names = [tracer.names[i] for i in tracer.name_id]

    def ancestors(span: int) -> list[str]:
        found = []
        while tracer.parent[span] >= 0:
            span = tracer.parent[span]
            found.append(names[span])
        return found

    writes = [ancestors(i) for i, name in enumerate(names) if name == "trajectory.write"]
    assert names.count("harness.run_cell") == 2
    # direct children of run_experiment, so harness.persist_s still counts them
    assert [chain[0] for chain in writes] == ["harness.run_experiment"] * 2
    assert not any("harness.run_cell" in chain for chain in writes)
    assert len(probe.cells) == 2
    assert all(cell.trajectory is not None and cell.batch is not None for cell in probe.cells)
