"""Diverse solution batches for continuous black-box minimization.

The package provides, end to end:

- a seeded benchmark suite of shifted objectives over ``[-5, 5]^D``
  (:mod:`divbatch.objectives`),
- a CMA-ES core with a block ask interface (:mod:`divbatch.cma`),
- a cascading diversity search that runs k CMA-ES instances kept apart by
  tabu regions (:mod:`divbatch.cascade`),
- batch subset selectors, from a cheap clearing sweep to an exact branch
  and bound (:mod:`divbatch.selection`),
- baseline portfolio generators (:mod:`divbatch.baselines`), and
- an experiment harness with loss metrics and CSV reporting
  (:mod:`divbatch.harness`).
"""

from .boxes import Box
from .cascade import (
    CENTER_STRATEGIES,
    CascadeInstance,
    CascadeLog,
    DsConfig,
    InfeasibleInitialization,
    NoPopulation,
    RegionSnapshot,
    init_diverse_means,
    run_ds,
    update_tabu_center,
)
from .cma import (
    AlreadyStopped,
    CmaParams,
    CmaState,
    InsufficientPopulation,
    InvalidMean,
    ask,
    ask_one,
    init_cma,
    should_stop,
    tell,
)
from .baselines import run_cma_indep, run_cma_single, run_random
from .harness import (
    ALGORITHMS,
    SELECTORS,
    EmptyBatch,
    ExperimentConfig,
    RunRecord,
    compute_metrics,
    export_plot_data,
    normalize_losses,
    read_records_dir,
    run_experiment,
    write_normalized_csv,
    write_records_csv,
)
from .objectives import (
    DimensionMismatch,
    InvalidDimension,
    ObjectiveFunction,
    UnknownFunction,
    function_ids,
    function_registry,
    make_function,
)
from .selection import (
    Batch,
    EmptyPortfolio,
    batch_to_dict,
    clearing_select,
    exact_select,
    greedy_select,
    verify_batch,
    write_batch,
)
from .trajectory import (
    EvaluatedPoint,
    ParseError,
    Trajectory,
    read_trajectory,
    write_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlreadyStopped",
    "Batch",
    "Box",
    "CENTER_STRATEGIES",
    "CascadeInstance",
    "CascadeLog",
    "CmaParams",
    "CmaState",
    "DimensionMismatch",
    "DsConfig",
    "EmptyBatch",
    "EmptyPortfolio",
    "EvaluatedPoint",
    "ExperimentConfig",
    "InfeasibleInitialization",
    "InsufficientPopulation",
    "InvalidDimension",
    "InvalidMean",
    "NoPopulation",
    "ObjectiveFunction",
    "ParseError",
    "RegionSnapshot",
    "RunRecord",
    "SELECTORS",
    "Trajectory",
    "UnknownFunction",
    "ask",
    "ask_one",
    "batch_to_dict",
    "clearing_select",
    "compute_metrics",
    "exact_select",
    "export_plot_data",
    "function_ids",
    "function_registry",
    "greedy_select",
    "init_cma",
    "init_diverse_means",
    "make_function",
    "normalize_losses",
    "read_records_dir",
    "read_trajectory",
    "run_cma_indep",
    "run_cma_single",
    "run_ds",
    "run_experiment",
    "run_random",
    "should_stop",
    "tell",
    "update_tabu_center",
    "verify_batch",
    "write_batch",
    "write_normalized_csv",
    "write_records_csv",
    "write_trajectory",
]
