"""Speed-normalized timing for a machine whose CPU speed drifts.

The benchmark was tuned on a 2-vCPU VM that shares its cores with other
tenants.  There, the same deterministic work took up to twice as long
from one second to the next, in phases lasting seconds to tens of
seconds, with CPU time equal to wall time.  A fixed reference loop timed
between jobs slows down with the workload.  Over 90 s of 0.3 s cascade
runs the two correlated at 0.79. Dividing by the reference cut the
spread of 10-run sums from 12% to 5%.

``Timeline`` splits the timed work into segments at job boundaries, and
times one reference sample at every split, outside the segments.  Each
segment is rescaled by the reference's nominal duration over the mean of
the samples before and after it.  The normalized sum reads in seconds at
the speed where one sample takes its nominal duration, about its duration
in the VM's fast phases.  The raw sum is kept alongside.

A reference tracks the workload only if both are slowed alike, so there
are two, each shaped like the inner loops of the work it normalizes.  On
``reselect``, whose ``exact`` jobs are mostly vectorized mask building,
the interpreter reference alone left a 10-run spread of 11% against 5%
with the vector reference for ``exact`` (seeds 0-9, interleaved runs).
Neither calls the program, so a change to the program does not move it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class InterpreterReference:
    """Small numpy calls driven from a Python loop, like the cascade's candidate loop."""

    nominal_s = 0.0021

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((10, 10))
        self._vector = rng.standard_normal(10)
        self._lower = np.full(10, -5.0)

    def __call__(self) -> None:
        a, v, lower = self._matrix, self._vector, self._lower
        inside = 0
        for _ in range(500):
            x = a @ v
            inside += bool(np.all(x >= lower))


class VectorReference:
    """Row-against-all distances over a 3000 x 10 array, like building selection masks."""

    nominal_s = 0.0035

    def __init__(self) -> None:
        self._points = np.random.default_rng(0).standard_normal((3000, 10))

    def __call__(self) -> None:
        xs = self._points
        for i in range(20):
            diff = xs - xs[i]
            ok = np.sqrt(np.sum(diff * diff, axis=1)) >= 4.0
            ok[i] = False
            int.from_bytes(np.packbits(ok.astype(np.uint8), bitorder="little").tobytes(), "little")


class Timeline:
    """Raw and speed-normalized seconds of named regions of timed work."""

    def __init__(self, reference) -> None:
        self._run_reference = reference
        self.nominal_s = reference.nominal_s
        self.raw: dict[str, float] = defaultdict(float)
        self.normalized: dict[str, float] = defaultdict(float)
        self.samples: list[float] = []
        self._region: str | None = None
        self._start = 0.0

    def reference(self) -> float:
        """Time one reference sample."""
        start = time.perf_counter()
        self._run_reference()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def split(self) -> None:
        """End the current segment and start the next one after a reference sample.

        Outside a region this only takes a sample.
        """
        end = time.perf_counter()
        self.reference()
        if self._region is not None:
            seconds = end - self._start
            self.raw[self._region] += seconds
            self.normalized[self._region] += seconds * self.scale(len(self.samples) - 2)
            self._start = time.perf_counter()

    def scale(self, before: int) -> float:
        """Nominal over measured sample time, between sample ``before`` and the next one."""
        return self.nominal_s / (0.5 * (self.samples[before] + self.samples[before + 1]))

    @contextmanager
    def region(self, name: str):
        """Time the enclosed work as region ``name``, split into segments by ``split``."""
        self.split()
        self._region = name
        self._start = time.perf_counter()
        try:
            yield
        finally:
            self.split()
            self._region = None
