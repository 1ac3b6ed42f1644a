"""In-memory span tracer for the benchmark's traced passes.

A span is (name, start, end, parent).  The tracer replaces the module
attributes each layer is called through with wrappers that record one
span per call, keeps the spans in flat arrays while the pass runs, and
writes them out when the run ends.  Counters (box draws, clips, filter
rejections) are kept at the same boundaries, so ratios are measured where
the work happens.  ``Patches`` installs the wrappers and restores the
original attributes afterwards.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        # open span indexes; -1 stands for "no parent"
        self._stack: list[int] = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``on_result``, when given, receives every return value (used to
        count outcomes such as filter rejections).
        """
        nid = self._id(name)
        clock = time.perf_counter
        stack, ids, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_under(self, key: str, parent_name: str, fn):
        """Wrap ``fn`` so calls made directly inside a ``parent_name`` span are counted."""
        pid = self._id(parent_name)
        stack, ids, counts = self._stack, self.name_id, self.counts

        def counted(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and ids[top] == pid:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return ids, parent, duration

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap their siblings in one thread.
        """
        ids, parent, duration = self._arrays()
        n_names = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        calls = np.bincount(ids, minlength=n_names)
        busy = np.bincount(ids, weights=duration, minlength=n_names)
        own = np.bincount(ids, weights=duration - child, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def children_of(self, name: str) -> dict[str, float]:
        """Busy seconds of the direct children of every ``name`` span, by child name."""
        if name not in self._ids:
            return {}
        ids, parent, duration = self._arrays()
        nested = parent >= 0
        under = np.zeros(len(duration), dtype=bool)
        under[nested] = ids[parent[nested]] == self._ids[name]
        totals = np.bincount(ids[under], weights=duration[under], minlength=len(self.names))
        return {self.names[i]: float(t) for i, t in enumerate(totals) if t > 0}

    def write(self, path: Path) -> None:
        """Write every span as flat arrays (``names`` indexes ``name_id``)."""
        ids, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=ids,
            parent=parent,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class Patches:
    """Replaced module attributes and dict entries, restored in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (``owner[attr]`` for a dict) by ``wrapper(current)``."""
        if isinstance(owner, dict):
            current = owner[attr]
            owner[attr] = wrapper(current)
        else:
            current = getattr(owner, attr)
            setattr(owner, attr, wrapper(current))
        self._undo.append((owner, attr, current))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
