"""The program attributes the benchmark's traced pass wraps must exist.

``perfbench/workloads.install_spans`` replaces module attributes of
``divbatch`` by name (``cascade.ask_one``, ``cascade._clear_of``,
``cascade.tell``, ``baselines.ask_one``, ``baselines.tell`` and more).  A
simplification that deletes or renames one of them fails here instead of
breaking ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

from pathlib import Path

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
