"""The program attributes the benchmark's traced pass wraps must exist.

``perfbench/workloads.install_spans`` replaces module attributes of
``divbatch`` by name (``cascade.ask_one``, ``cascade._clear_of``,
``cascade.tell``, ``baselines.ask_one``, ``baselines.tell`` and more).  A
simplification that deletes or renames one of them fails here instead of
breaking ``perfbench/run.py --trace 1``.  ``tell`` must also keep calling
``_refresh_eigensystem`` and ``should_stop`` through the module's names,
or the traced pass's ``cma.eigh`` and ``cma.stop`` counters read 0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import divbatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_hook_installs_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Patches, Tracer
    from workloads import install_spans

    before = {name: getattr(divbatch.cascade, name) for name in ("ask_one", "_clear_of", "tell")}
    patches = Patches()
    try:
        install_spans(patches, divbatch, Tracer())
        assert divbatch.cascade._clear_of is not before["_clear_of"]
    finally:
        patches.restore()
    assert {name: getattr(divbatch.cascade, name) for name in before} == before


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
