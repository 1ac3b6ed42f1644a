"""Cascading diversity-search tests.

Covers diverse initialization, candidate filtering, region-center
strategies, budget accounting, stalls, restarts, and the clearance
invariant replayed from region logs.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import divbatch.cascade
from cascade_checks import (
    FlatFunction,
    clearance_violations,
    epoch_mean_violations,
    row_epochs,
    row_generations,
)
from divbatch import (
    AlreadyStopped,
    Box,
    CENTER_STRATEGIES,
    CascadeLog,
    CmaParams,
    DsConfig,
    EmptyPortfolio,
    InfeasibleInitialization,
    ask_clear,
    init_cma,
    init_diverse_means,
    make_function,
    run_ds,
    trajectory,
)
from divbatch.boxes import distances
from divbatch.cascade import _clear_of


def test_init_diverse_means_single_point():
    means = init_diverse_means(1, Box.cube(3), 4.0, np.random.default_rng(0))
    assert means.shape == (1, 3)
    assert Box.cube(3).contains(means[0])


@pytest.mark.parametrize("seed", range(20))
def test_init_diverse_means_pairwise_distance(seed):
    box = Box.cube(10)
    means = init_diverse_means(5, box, 10.0, np.random.default_rng(seed))
    assert len(means) == 5
    for a in range(5):
        assert box.contains(means[a])
        for b in range(a + 1, 5):
            assert np.linalg.norm(means[a] - means[b]) >= 10.0


def test_init_diverse_means_rejects_oversized_distance():
    # the cube's diagonal in D=10 is 10 sqrt(10) ~ 31.6
    with pytest.raises(InfeasibleInitialization):
        init_diverse_means(2, Box.cube(10), 32.0, np.random.default_rng(0))


def test_init_diverse_means_raises_when_the_cap_is_exhausted():
    # 30 points pairwise >= 13 apart cannot fit in [-5, 5]^2, so the
    # farthest-point fallback falls short too, and says by how much over
    # its whole pool (over the corners and center alone it would be 0)
    with pytest.raises(InfeasibleInitialization, match="closest pair .* is 1.6971 apart"):
        init_diverse_means(30, Box.cube(2), 13.0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "k, dim, d_min",
    [
        # the corners and the center of the square, 7.07 apart
        (5, 2, 7.0),
        # three corners of the square, at half its diagonal
        (3, 2, 0.5 * 10 * 2**0.5),
        # ten corners of the 10-cube that differ in at least three
        # coordinates, 17.3 apart (a binary code of distance 3)
        (10, 10, 16.0),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_init_diverse_means_meets_feasible_requests_past_the_draw_cap(k, dim, d_min, seed):
    box = Box.cube(dim)
    means = init_diverse_means(k, box, d_min, np.random.default_rng(seed))
    assert means.shape == (k, dim)
    for a in range(k):
        assert box.contains(means[a])
        for b in range(a + 1, k):
            assert distances(means[a], means[b]) >= d_min


def cube_corners(dim):
    return np.array(list(itertools.product((-5.0, 5.0), repeat=dim)))


def distance_3_code():
    """The 16 words of the Hamming [7, 4] code, padded to 10 coordinates,
    as corners of [-5, 5]^10: any two differ in at least three coordinates."""
    generator = np.array(
        [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]
    )
    words = np.array(list(itertools.product((0, 1), repeat=4))) @ generator % 2
    return np.where(np.hstack([words, np.zeros((16, 3), int)]) == 1, 5.0, -5.0)


# Point sets in [-5, 5]^D, each a feasible request at its closest pair's
# distance: every corner at the side, 10, and with the center added at
# min(10, 5 sqrt(D)).  Gonzalez's dispersion is only sure to reach half the
# best closest pair, so each one is a test of the fallback.
FEASIBLE_SETS = {
    **{f"corners-{dim}": cube_corners(dim) for dim in range(2, 7)},
    **{
        f"corners-center-{dim}": np.vstack([cube_corners(dim), np.zeros(dim)])
        for dim in range(2, 7)
    },
    "distance-3-code": distance_3_code(),
}


def closest_pair(points):
    return float(distances(points[:, None], points)[np.triu_indices(len(points), 1)].min())


@pytest.mark.parametrize("name", sorted(FEASIBLE_SETS))
@pytest.mark.parametrize("seed", range(5))
def test_init_diverse_means_meets_constructed_feasible_sets(name, seed):
    points = FEASIBLE_SETS[name]
    k, dim = points.shape
    d_min = closest_pair(points)
    means = init_diverse_means(k, Box.cube(dim), d_min, np.random.default_rng(seed))
    assert means.shape == (k, dim)
    assert all(Box.cube(dim).contains(x) for x in means)
    assert closest_pair(means) >= d_min


@pytest.mark.filterwarnings("ignore:budget .* is below one full round")
@pytest.mark.parametrize(
    "k, dim, d_min, budget, seed",
    [
        # a third mean at 7.07 from two others takes the whole draw cap
        (3, 2, 7.07, 1, 52),
        # all corners of the cube, a request the fallback once refused
        (8, 3, 10.0, 100, 0),
    ],
)
def test_a_request_past_the_draw_cap_takes_few_distance_calls(
    monkeypatch, k, dim, d_min, budget, seed
):
    # one call per draw would be at least the cap's 100,000
    calls = []

    def counting(*args):
        calls.append(None)
        return distances(*args)

    monkeypatch.setattr(divbatch.cascade, "distances", counting)
    config = DsConfig(k=k, d_min=d_min, budget=budget, seed=seed)
    traj, _ = run_ds(config, make_function("sphere", dim, 0))
    assert len(traj) == budget
    assert 0 < len(calls) < 1000


def test_candidate_boundary_is_valid():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert _clear_of(np.array([3.0, 0.0]), centers, 3.0)
    assert not _clear_of(np.array([2.999999, 0.0]), centers, 3.0)
    assert not _clear_of(np.array([7.5, 0.0]), centers, 3.0)


def test_instance_zero_is_never_constrained():
    # instance 0 has no earlier centers
    assert _clear_of(np.zeros(2), np.empty((0, 2)), 100.0)


# run_ds takes only a DsConfig, which refuses a bad request when it is built


def test_run_ds_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown center strategy 'nope'"):
        DsConfig(k=2, d_min=1.0, budget=50, center_strategy="nope")


@pytest.mark.parametrize("k", [0, -1])
def test_run_ds_rejects_fewer_than_one_instance(k):
    # with no instances every epoch would be spent at once, forever
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        DsConfig(k=k, d_min=1.0, budget=10)


@pytest.mark.parametrize(
    "change, message, error",
    [
        # run_ds starts its first epoch inside its loop, so a budget of 0
        # would draw no means, where every other run draws them
        ({"budget": 0}, "budget must be >= 1, got 0", EmptyPortfolio),
        ({"budget": -3}, "budget must be >= 1, got -3", EmptyPortfolio),
        ({"k": 2.5}, "k must be an int, got 2.5", ValueError),
        ({"k": True}, "k must be an int, got True", ValueError),
        ({"budget": 30.5}, "budget must be an int, got 30.5", ValueError),
        ({"budget": True}, "budget must be an int, got True", ValueError),
        ({"budget": np.float64(30.0)}, "budget must be an int, got np.float64", ValueError),
        ({"seed": 1.5}, "seed must be an int, got 1.5", ValueError),
        ({"seed": False}, "seed must be an int, got False", ValueError),
        ({"seed": -1}, "seed must be >= 0, got -1", ValueError),
    ],
)
def test_ds_config_refuses_a_bad_run_integer(change, message, error):
    with pytest.raises(error, match=message) as raised:
        DsConfig(**{"k": 2, "d_min": 1.0, "budget": 30, **change})
    assert type(raised.value) is error


def test_ds_config_takes_numpy_integers():
    numpy = DsConfig(k=np.int64(2), d_min=1.0, budget=np.int32(60), seed=np.uint8(3))
    python = DsConfig(k=2, d_min=1.0, budget=60, seed=3)
    fn = make_function("sphere", 2, 0)
    assert run_ds(numpy, fn)[0] == run_ds(python, make_function("sphere", 2, 0))[0]


def test_run_ds_rejects_a_nan_d_min_before_drawing():
    # no distance is >= NaN, so every later instance would stall after
    # 100 * lambda draws a generation; the means would take 100,000 draws
    with pytest.raises(ValueError, match="d_min must not be NaN"):
        DsConfig(k=3, d_min=float("nan"), budget=100)


@pytest.mark.parametrize("d_min", ["10", None, True, np.True_, 1j])
def test_ds_config_names_a_d_min_that_is_not_a_real_number(d_min):
    message = f"^d_min must be a real number, got {re.escape(repr(d_min))}$"
    with pytest.raises(ValueError, match=message):
        DsConfig(k=2, d_min=d_min, budget=10)


def test_ds_config_takes_numpy_and_int_d_min():
    for d_min in (np.float32(1.5), np.int64(2), 2):
        assert DsConfig(k=2, d_min=d_min, budget=10).d_min == d_min


def test_a_built_ds_config_cannot_be_changed():
    # k=0 set after the checks would make run_ds loop forever
    config = DsConfig(k=2, d_min=1.0, budget=10)
    with pytest.raises(FrozenInstanceError):
        config.k = 0
    assert config.k == 2


@pytest.mark.parametrize("budget", [37, 100, 203])
def test_run_ds_spends_the_budget_exactly(budget):
    fn = make_function("rastrigin_sep", 3, 0)
    traj, _ = run_ds(DsConfig(k=3, d_min=1.0, budget=budget, seed=0), fn)
    assert len(traj) == budget and traj.xs.shape == (budget, 3)
    assert ((0 <= traj.instance_id) & (traj.instance_id < 3)).all()
    assert all(fn.box.contains(x) for x in traj.xs)
    assert fn.eval_count == budget


def test_single_instance_never_rejects():
    fn = make_function("griewank", 3, 0)
    traj, log = run_ds(DsConfig(k=1, d_min=3.0, budget=140, seed=2), fn)
    assert log.total_rejections == 0
    assert len(traj) == 140


def test_one_instance_needs_no_distance_within_the_box():
    # d_min beyond the box diameter separates nothing when there is one mean
    fn = make_function("sphere", 2, 0)
    traj, log = run_ds(DsConfig(k=1, d_min=20.0, budget=50), fn)
    assert len(traj) == 50 and (traj.instance_id == 0).all()
    assert log.total_rejections == 0
    with pytest.raises(InfeasibleInitialization, match="box diameter"):
        run_ds(DsConfig(k=2, d_min=20.0, budget=50), fn)


def test_run_ds_is_deterministic():
    fn_a = make_function("schaffers_f7", 3, 1)
    fn_b = make_function("schaffers_f7", 3, 1)
    cfg = DsConfig(k=3, d_min=2.0, budget=150, seed=9)
    assert run_ds(cfg, fn_a)[0] == run_ds(cfg, fn_b)[0]


class HalfNan:
    """Sphere on x0 <= 0, NaN on x0 > 0."""

    box = Box.cube(2)

    def evaluate_many(self, xs):
        return np.where(xs[:, 0] > 0, np.nan, np.add.reduce(xs * xs, axis=1))


def test_run_ds_is_deterministic_when_the_objective_returns_nan():
    cfg = DsConfig(k=3, d_min=1.0, budget=200, seed=0)
    first, _ = run_ds(cfg, HalfNan())
    assert np.isnan(first.fs).any()
    assert run_ds(cfg, HalfNan())[0] == first


def test_run_ds_warns_when_budget_is_below_one_round():
    fn = make_function("sphere", 2, 0)
    with pytest.warns(UserWarning, match="below one full round"):
        run_ds(DsConfig(k=4, d_min=1.0, budget=10, seed=0), fn)


def test_run_ds_propagates_infeasible_initialization():
    fn = make_function("sphere", 10, 0)
    with pytest.raises(InfeasibleInitialization):
        run_ds(DsConfig(k=2, d_min=40.0, budget=100, seed=0), fn)


def test_clearance_invariant_holds_on_logged_runs():
    for fid, dim, k, d_min, budget in [
        ("rastrigin_sep", 5, 3, 4.0, 300),
        ("gauss_peaks", 2, 3, 2.0, 240),
    ]:
        fn = make_function(fid, dim, 0)
        traj, log = run_ds(DsConfig(k=k, d_min=d_min, budget=budget, seed=3), fn)
        assert clearance_violations(traj, log, d_min) == []
        assert epoch_mean_violations(log, d_min) == []


def test_population_best_centers_replay_from_the_trajectory():
    fn = make_function("rastrigin_sep", 3, 4)
    traj, log = run_ds(DsConfig(k=2, d_min=2.0, budget=210, seed=4), fn)
    pops = defaultdict(list)
    stamps = zip(traj.instance_id.tolist(), row_generations(log).tolist())
    for row, (instance, generation) in enumerate(stamps):
        pops[(instance, generation)].append(row)
    fs = traj.fs.tolist()
    rows = zip(log.generation.tolist(), log.instance.tolist(), log.centers)
    snapshot = {(generation, instance): center for generation, instance, center in rows}
    running_best = {}
    checked = 0
    for (inst, generation), pop in sorted(pops.items(), key=lambda kv: kv[0][1]):
        for row in pop:
            cur = running_best.get(inst)
            if cur is None or (fs[row], row) < (fs[cur], cur):
                running_best[inst] = row
        center = snapshot[(generation, inst)]
        gen_best = min(pop, key=lambda row: (fs[row], row))
        # a live instance moves its center to the generation best; an
        # instance that stopped this round freezes at its best so far
        candidates = [traj.xs[gen_best], traj.xs[running_best[inst]]]
        assert any(np.array_equal(center, c) for c in candidates)
        checked += 1
    # 210 evals at 7 per instance generation gives 15 rounds of 2 instances
    assert checked == 30


def test_stalled_instance_freezes_at_its_best_point():
    fn = make_function("sphere", 2, 0)
    traj, log = run_ds(DsConfig(k=2, d_min=9.0, budget=300, seed=0), fn)
    rows1 = np.flatnonzero(traj.instance_id == 1).tolist()
    # instance 1 is starved once instance 0 settles mid-box
    assert 0 < len(rows1) < 50
    assert len(traj) == 300
    best1 = min(rows1, key=lambda row: (traj.fs[row], row))
    last_center = log.centers[log.instance == 1][-1]
    assert np.array_equal(last_center, traj.xs[best1])


def test_a_stalled_instance_is_a_stopped_state(monkeypatch):
    # the run of the test above: instance 1 of the first epoch is starved
    states = []

    def recording_init_cma(*args):
        states.append(init_cma(*args))
        return states[-1]

    monkeypatch.setattr(divbatch.cascade, "init_cma", recording_init_cma)
    fn = make_function("sphere", 2, 0)
    run_ds(DsConfig(k=2, d_min=9.0, budget=300, seed=0), fn)
    assert states[1].stop_reason == "stalled"
    with pytest.raises(AlreadyStopped, match="stalled"):
        ask_clear(states[1], 6, np.empty((0, 2)), 9.0, 600)


def test_stall_with_zero_evaluations_keeps_the_initial_center():
    fn = make_function("sphere", 2, 0)
    traj, log = run_ds(DsConfig(k=2, d_min=9.0, budget=300, seed=4), fn)
    assert (traj.instance_id == 0).all()
    assert len(traj) == 300
    last_center = log.centers[log.instance == 1][-1]
    assert np.array_equal(last_center, log.epoch_means[0, 1])


def test_flat_function_restarts_until_the_budget_is_gone():
    fn = FlatFunction()
    traj, log = run_ds(DsConfig(k=2, d_min=1.0, budget=60, seed=0), fn)
    assert len(traj) == 60
    epochs = len(log.epoch_starts)
    assert epochs >= 3
    assert log.epoch_means.shape == (epochs, 2, 2)
    assert epoch_mean_violations(log, 1.0) == []
    # row e of the epoch columns is epoch e, the epoch of the rows it evaluated
    epoch, generation = row_epochs(log), row_generations(log)
    assert np.unique(epoch).tolist() == list(range(epochs))
    starts = [int(generation[epoch == e][0]) for e in range(epochs)]
    assert log.epoch_starts.tolist() == starts


def test_restart_on_a_real_function():
    fn = make_function("sphere", 2, 0)
    traj, log = run_ds(DsConfig(k=2, d_min=2.0, budget=2000, seed=0), fn)
    assert len(log.epoch_starts) >= 2
    assert len(traj) == 2000
    assert clearance_violations(traj, log, 2.0) == []
    assert epoch_mean_violations(log, 2.0) == []


@pytest.mark.parametrize("strategy", CENTER_STRATEGIES)
def test_center_strategies_all_run_to_budget(strategy):
    fn = make_function("griewank", 3, 2)
    traj, _ = run_ds(DsConfig(k=2, d_min=2.0, budget=120, seed=1, center_strategy=strategy), fn)
    assert len(traj) == 120


def test_center_strategies_change_the_search():
    fn_a = make_function("rastrigin_sep", 3, 0)
    fn_b = make_function("rastrigin_sep", 3, 0)
    a, _ = run_ds(DsConfig(k=3, d_min=2.0, budget=200, seed=0), fn_a)
    b, _ = run_ds(
        DsConfig(k=3, d_min=2.0, budget=200, seed=0, center_strategy="distribution_mean"), fn_b
    )
    assert a != b


def test_region_log_csv_layout(tmp_path):
    fn = make_function("sphere", 2, 0)
    _, log = run_ds(DsConfig(k=2, d_min=1.0, budget=60, seed=0), fn)
    path = tmp_path / "regions.csv"
    log.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,instance,x0,x1"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in {"0", "1"}
    assert [float(v) for v in first[2:]] == log.centers[0].tolist()
    assert len(lines) == 1 + len(log.centers) == 1 + len(log.generation) == 1 + len(log.instance)


def test_region_log_bytes_are_one_repr_per_coordinate(tmp_path):
    fn = make_function("rastrigin_sep", 3, 0)
    _, log = run_ds(DsConfig(k=3, d_min=1.0, budget=300, seed=2), fn)
    last = int(log.generation[-1])
    log.generation = np.append(log.generation, last + 1)
    log.instance = np.append(log.instance, 0)
    log.centers = np.vstack([log.centers, [1e-300, 1e300, -0.0]])
    path = tmp_path / "regions.csv"
    log.write(path)
    lines = ["generation,instance,x0,x1,x2"]
    for generation, instance, center in zip(log.generation, log.instance, log.centers):
        center = ",".join(repr(float(v)) for v in center)
        lines.append(f"{generation},{instance},{center}")
    assert path.read_text() == "\n".join(lines) + "\n"
    assert lines[-1] == f"{last + 1},0,1e-300,1e+300,-0.0"



@pytest.mark.parametrize("values", [1, 3, 7])
def test_region_log_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, values):
    # 1 to 3 rows of 3 centers per written block against the whole log in one
    fn = make_function("rastrigin_sep", 3, 0)
    _, log = run_ds(DsConfig(k=3, d_min=1.0, budget=300, seed=2), fn)
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    log.write(whole)
    assert len(log.centers) * 3 < trajectory._WRITE_BLOCK_VALUES
    monkeypatch.setattr(trajectory, "_WRITE_BLOCK_VALUES", values)
    log.write(blocks)
    assert blocks.read_bytes() == whole.read_bytes()


def _cascade_log():
    return CascadeLog(
        generation=np.arange(2),
        instance=np.arange(2),
        evaluations=np.full(2, 6),
        centers=np.zeros((2, 3)),
        epoch_starts=np.zeros(1, dtype=int),
        epoch_means=np.zeros((1, 2, 3)),
    )


# ``CmaParams(D)`` is one shared object per D: each build takes the next D
_PARAM_DIMENSIONS = itertools.count(2)

ARRAY_HOLDERS = {
    "Box": lambda: Box.cube(3),
    "CascadeLog": _cascade_log,
    "CmaParams": lambda: CmaParams(next(_PARAM_DIMENSIONS)),
    "CmaState": lambda: init_cma(np.zeros(3), 0, Box.cube(3)),
    "ObjectiveFunction": lambda: make_function("sphere", 3, 0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
def test_classes_holding_arrays_compare_by_identity(make):
    # a field-wise == would ask numpy for the truth of an array and raise
    a, b = make(), make()
    assert a == a and a != b
    if type(a) in (Box, CmaParams):
        assert len({a, b, a}) == 2
