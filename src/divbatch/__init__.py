"""Diverse solution batches for continuous black-box minimization.

The package provides, end to end:

- a seeded benchmark suite of shifted objectives over ``[-5, 5]^D``
  (:mod:`divbatch.objectives`),
- a CMA-ES core with a block ask interface (:mod:`divbatch.cma`),
- a cascading diversity search that runs k CMA-ES instances kept apart by
  tabu regions (:mod:`divbatch.cascade`),
- batch subset selectors, from a cheap clearing sweep to an exact branch
  and bound (:mod:`divbatch.selection`),
- baseline portfolio generators (:mod:`divbatch.baselines`),
- columnar evaluation trajectories and their CSV files
  (:mod:`divbatch.trajectory`), and
- an experiment harness with loss metrics and CSV reporting
  (:mod:`divbatch.harness`).
"""

# the package exports exactly what each module lists in its ``__all__``
from .boxes import *  # noqa: F403
from .cascade import *  # noqa: F403
from .cma import *  # noqa: F403
from .baselines import *  # noqa: F403
from .harness import *  # noqa: F403
from .objectives import *  # noqa: F403
from .selection import *  # noqa: F403
from .trajectory import *  # noqa: F403
from . import baselines, boxes, cascade, cma, harness, objectives, selection, trajectory

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (boxes, cascade, cma, baselines, harness, objectives, selection, trajectory)
        for name in module.__all__
    }
)
