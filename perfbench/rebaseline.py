"""Rewrite the golden digests of ``grid-d10`` from the current tree.

Usage (from the repository root):

    python3 perfbench/rebaseline.py

Runs the ``grid-d10`` grid once over run seeds 0-9 and writes the SHA-256
of every trajectory CSV and batch JSON to ``perfbench/golden/grid-d10.sha256``
(``sha256sum`` format).  A run of the benchmark with ``--seed s`` compares
the outputs of its seeds that the file covers.  Rebaseline only on
purpose, when a change alters the outputs deliberately, and record the
before/after acceptance table.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
from workloads import GOLDEN, WORKLOADS, Grid, file_digests

SEEDS = 10


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    grid = dataclasses.replace(WORKLOADS["grid-d10"], n_seeds=SEEDS, golden=None)
    work = run.OUT / "work" / "rebaseline"
    shutil.rmtree(work, ignore_errors=True)
    result = grid.run_pass(grid.setup(0, work))
    if result.failed:
        print("\n".join(result.problems), file=sys.stderr)
        print(f"error: {result.failed} of {result.attempted} jobs failed; digests not written", file=sys.stderr)
        return 1
    digests = file_digests(work, Grid.DIGESTED)
    GOLDEN.write_text("".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())))
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(digests)} digests of seeds 0..{SEEDS - 1} -> {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
