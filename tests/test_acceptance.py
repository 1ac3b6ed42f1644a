"""Acceptance gate: ten end-to-end checks at desk scale.

Each test prints one ``[NN name] PASS/FAIL`` line (visible with ``-s``)
with the measured quantities next to the stated threshold.  Protocols
and thresholds are fixed up front; a FAIL line means the implementation
genuinely does not reach the stated threshold on the stated grid, not
that the measurement is broken.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cascade_checks import clearance_violations, epoch_mean_violations
from selection_checks import enumerate_best, random_instance
from trajectory_checks import rows_of

from divbatch import (
    CmaParams,
    DsConfig,
    ExperimentConfig,
    clearing_select,
    exact_select,
    export_plot_data,
    function_ids,
    greedy_select,
    make_function,
    normalize_losses,
    run_cma_indep,
    run_cma_single,
    run_ds,
    run_experiment,
    run_random,
    verify_batch,
    write_normalized_csv,
    write_records_csv,
)

FN_IDS = list(function_ids())
SELECTORS = {"clearing": clearing_select, "greedy": greedy_select, "exact": exact_select}

# the shared benchmark protocol: D=10, T=1000, k=5, five seeds, fixed
# objective instances, clearing selection
MAIN_SEEDS = [0, 1, 2, 3, 4]
MAIN_DIM = 10
MAIN_BUDGET = 1000
MAIN_K = 5
MAIN_DMIN = 10.0
FLIP_DMIN = 1.0


def _report(index: int, name: str, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"\n[{index:02d} {name}] {status} {detail}")
    return passed


def _grid(d_min: float, algorithms: list[str]) -> list:
    cfg = ExperimentConfig(
        functions=FN_IDS,
        algorithms=algorithms,
        seeds=MAIN_SEEDS,
        dimension=MAIN_DIM,
        budget=MAIN_BUDGET,
        k=MAIN_K,
        d_min=d_min,
        method="clearing",
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def main_grid():
    return _grid(MAIN_DMIN, ["ds", "random", "cma"])


@pytest.fixture(scope="module")
def flip_grid():
    return _grid(FLIP_DMIN, ["ds", "random"])


def _seed_mean(records, fid, algo):
    vals = [r.batch_average() for r in records if r.function_id == fid and r.algorithm == algo]
    assert len(vals) == len(MAIN_SEEDS)
    return float(np.mean(vals))


def test_01_every_selected_batch_is_feasible_with_the_right_leader():
    """>= 200 cells; every batch passes the distance and leader check."""
    start = time.perf_counter()
    dim, budget, k, d_min = 3, 150, 3, 1.0
    generators = {
        "ds": lambda fn, seed: run_ds(DsConfig(k=k, d_min=d_min, budget=budget, seed=seed), fn)[0],
        "random": lambda fn, seed: run_random(fn, budget, seed),
        "cma": lambda fn, seed: run_cma_single(fn, budget, seed),
        "cma-indep": lambda fn, seed: run_cma_indep(fn, budget, k, seed),
    }
    cells = checked = complete = 0
    for fid in FN_IDS:
        for algo, generate in generators.items():
            for seed in (0, 1):
                portfolio = generate(make_function(fid, dim, 0), seed)
                for selector in SELECTORS.values():
                    batch = selector(portfolio, k, d_min)
                    cells += 1
                    checked += verify_batch(batch, d_min, portfolio)
                    complete += batch.complete
    elapsed = time.perf_counter() - start
    ok = cells >= 200 and checked == cells and elapsed < 600
    assert _report(
        1,
        "batch feasibility",
        ok,
        f"{checked}/{cells} cells verified ({complete} complete) in {elapsed:.1f}s (limit 600s)",
    )


def test_02_exact_selector_matches_exhaustive_enumeration():
    start = time.perf_counter()
    exact_ok = dominated = 0
    trials = 100
    for seed in range(trials):
        portfolio, k, d_min = random_instance(seed)
        ordered = sorted(rows_of(portfolio), key=lambda p: (p.f, p.eval_index))
        size, best_sum = enumerate_best(ordered, k, d_min)

        exact = exact_select(portfolio, k, d_min)
        if (
            exact.proved_optimal
            and len(exact) == size
            and exact.fitness_sum() == pytest.approx(best_sum, abs=1e-9)
            and verify_batch(exact, d_min, portfolio)
        ):
            exact_ok += 1
        for selector in (greedy_select, clearing_select):
            batch = selector(portfolio, k, d_min)
            # a heuristic batch either reaches a smaller feasible size or
            # pays at least the optimal fitness sum at the full size
            if len(batch) < size or batch.fitness_sum() >= best_sum - 1e-9:
                dominated += 1
    elapsed = time.perf_counter() - start
    ok = exact_ok == trials and dominated == 2 * trials and elapsed < 60
    assert _report(
        2,
        "exact optimality",
        ok,
        f"exact {exact_ok}/{trials}, heuristics dominated {dominated}/{2 * trials}, "
        f"in {elapsed:.1f}s (limit 60s)",
    )


def test_03_cma_convergence_sanity():
    start = time.perf_counter()
    sphere_hits = 0
    for seed in range(5):
        fn = make_function("sphere", 5, 0)
        traj = run_cma_single(fn, 2000, seed)
        sphere_hits += fn.loss(traj.fs[traj.best()]) < 1e-8
    ellipsoid_hits = 0
    for seed in range(5):
        fn = make_function("ellipsoid", 5, 0)
        traj = run_cma_single(fn, 5000, seed)
        ellipsoid_hits += fn.loss(traj.fs[traj.best()]) < 1e-6
    elapsed = time.perf_counter() - start
    ok = sphere_hits >= 4 and ellipsoid_hits >= 3 and elapsed < 120
    assert _report(
        3,
        "cma convergence",
        ok,
        f"sphere<1e-8 on {sphere_hits}/5 (need 4), ellipsoid<1e-6 on {ellipsoid_hits}/5 "
        f"(need 3), in {elapsed:.1f}s (limit 120s)",
    )


def test_04_cascade_always_fills_the_batch_where_single_cma_cannot(main_grid):
    ds_incomplete = [r for r in main_grid if r.algorithm == "ds" and not r.complete]
    cma_bad = [
        fid
        for fid in FN_IDS
        if any(not r.complete for r in main_grid if r.algorithm == "cma" and r.function_id == fid)
    ]
    ok = not ds_incomplete and len(cma_bad) >= 5
    assert _report(
        4,
        "reliability",
        ok,
        f"ds incomplete batches: {len(ds_incomplete)}/50 (need 0); single cma incomplete "
        f"on {len(cma_bad)}/10 functions (need >= 5)",
    )


def test_05_cascade_batch_average_beats_random_on_most_functions(main_grid):
    wins = []
    rows = []
    for fid in FN_IDS:
        ds = _seed_mean(main_grid, fid, "ds")
        rnd = _seed_mean(main_grid, fid, "random")
        wins.append(ds <= rnd)
        rows.append(f"{fid}={'+' if ds <= rnd else '-'}({(ds - rnd) / rnd:+.1%})")
    ok = sum(wins) >= 6
    assert _report(
        5,
        "batch dominance",
        ok,
        f"seed-mean batch-average wins {sum(wins)}/10 (need >= 6): " + " ".join(rows),
    )


def test_06_sphere_trades_leader_quality_for_batch_average(main_grid):
    ds = {r.seed: r for r in main_grid if r.function_id == "sphere" and r.algorithm == "ds"}
    rnd = {r.seed: r for r in main_grid if r.function_id == "sphere" and r.algorithm == "random"}
    seeds_holding = sum(
        rnd[s].leader_loss > ds[s].leader_loss
        and rnd[s].batch_average() < ds[s].batch_average()
        for s in MAIN_SEEDS
    )
    ok = seeds_holding >= 3
    assert _report(
        6,
        "sphere exception",
        ok,
        f"worse random leader with better random batch average on {seeds_holding}/5 seeds "
        f"(need majority)",
    )


def test_07_small_distance_requirement_flips_dominance(flip_grid):
    wins = sum(
        _seed_mean(flip_grid, fid, "ds") < _seed_mean(flip_grid, fid, "random")
        for fid in FN_IDS
    )
    ok = wins >= 9
    assert _report(
        7,
        "small d_min flip",
        ok,
        f"strict seed-mean wins at d_min=1: {wins}/10 (need >= 9)",
    )


def test_08_population_and_stopping_constants_are_pinned():
    p10 = CmaParams.defaults(10)
    p2 = CmaParams.defaults(2)
    checks = [
        p10.lambda_ == 10,
        p10.mu == 5,
        p2.lambda_ == 6,
        p2.mu == 3,
        p10.tol_x == 1e-11,
        p10.tol_fun == 1e-11,
        p10.tol_fun_hist == 1e-12,
        p10.tol_fun_rel == 0.0,
        p10.tol_stagnation == 146,
        p10.max_iter == 1000 * 10**2,
        p2.tol_x == 1e-11,
        p2.tol_fun == 1e-11,
        p2.tol_fun_hist == 1e-12,
        p2.tol_fun_rel == 0.0,
        p2.tol_stagnation == 146,
        p2.max_iter == 1000 * 2**2,
        p10.sigma0 == 1.0,
        p2.sigma0 == 1.0,
    ]
    ok = all(checks)
    assert _report(
        8,
        "parameter pinning",
        ok,
        f"{sum(checks)}/{len(checks)} pinned constants match "
        f"(lambda(10)={p10.lambda_}, lambda(2)={p2.lambda_}, mu=floor(lambda/2), "
        f"stagnation={p10.tol_stagnation})",
    )


def _pipeline(out_dir):
    cfg = ExperimentConfig(
        functions=["sphere", "griewank"],
        algorithms=["ds", "random", "cma", "cma-indep"],
        seeds=[0, 1],
        dimension=2,
        budget=120,
        k=3,
        d_min=1.0,
        out_dir=out_dir,
    )
    records = run_experiment(cfg)
    write_records_csv(records, out_dir / "records.csv")
    write_normalized_csv(normalize_losses(records), out_dir / "normalized.csv")
    export_plot_data(records, out_dir / "curves.csv")


def test_09_full_pipeline_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _pipeline(a)
    _pipeline(b)
    mismatches = []
    for sub in ("trajectories", "batches"):
        names = sorted(p.name for p in (a / sub).iterdir())
        assert names == sorted(p.name for p in (b / sub).iterdir())
        for name in names:
            if (a / sub / name).read_bytes() != (b / sub / name).read_bytes():
                mismatches.append(f"{sub}/{name}")
    for table in ("records.csv", "normalized.csv", "curves.csv"):
        if (a / table).read_bytes() != (b / table).read_bytes():
            mismatches.append(table)
    n_files = 2 * 8 + 3
    ok = not mismatches
    assert _report(
        9,
        "determinism",
        ok,
        f"{n_files - len(mismatches)}/{n_files} artifacts byte-identical across reruns"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )


CASCADE_REPLAY_RUNS = [
    # (function, dimension, k, d_min, budget, seeds); the sphere runs
    # finish early and restart, exercising the fresh-means clause
    ("sphere", 2, 2, 2.0, 2000, (0, 1, 2)),
    ("rastrigin_sep", 5, 3, 4.0, 400, (0, 1, 2)),
    ("gauss_peaks", 2, 3, 2.0, 600, (0, 1)),
    ("diff_powers", 10, 5, 10.0, 500, (0, 1)),
]


def test_10_logged_cascade_runs_replay_the_distance_discipline():
    runs = clean = points_checked = multi_epoch = 0
    for fid, dim, k, d_min, budget, seeds in CASCADE_REPLAY_RUNS:
        for seed in seeds:
            fn = make_function(fid, dim, 0)
            trajectory, log = run_ds(DsConfig(k=k, d_min=d_min, budget=budget, seed=seed), fn)
            runs += 1
            bad_points = clearance_violations(trajectory, log, d_min)
            bad_epochs = epoch_mean_violations(log, d_min)
            clean += not bad_points and not bad_epochs
            points_checked += int((trajectory.instance_id > 0).sum())
            multi_epoch += len(log.epoch_starts) > 1
    ok = runs == 10 and clean == runs and multi_epoch >= 1
    assert _report(
        10,
        "cascade replay",
        ok,
        f"{clean}/{runs} logged runs clean over {points_checked} constrained points; "
        f"{multi_epoch} runs restarted (need >= 1)",
    )
