# ## Anatomy of a cascading diversity search
#
# The diversity search runs k CMA-ES instances at once.  Instance 0
# optimizes freely; every later instance must keep its samples at least
# d_min away from the tabu region centers of all earlier instances, and
# each instance moves its own center to its best point after every
# generation.  Every region is a ball of radius d_min, so a center is all
# an instance needs.  When the whole cascade has stopped before the budget
# is spent, the finished instances are retired with their regions and a
# fresh epoch starts in the still-uncovered space.

import numpy as np

from divbatch import DsConfig, make_function, run_ds
from divbatch.boxes import distances

fn = make_function("gauss_peaks", dimension=2, seed=0)
cfg = DsConfig(k=3, d_min=2.0, budget=600, seed=0)
trajectory, log = run_ds(cfg, fn)

print("one run on the 2-D Gaussian peaks landscape:")
print("  evaluations :", len(trajectory))
# the log is columns: one row per instance step, in generation order,
# with the number of evaluations the step made, and one row per epoch
generations = int(log.generation[-1]) + 1
print("  generations :", generations)
print("  epochs      :", len(log.epoch_starts))
print("  first generations of the epochs:", log.epoch_starts.tolist())

# ## Where the regions went
#
# Row r of the log holds instance ``log.instance[r]``'s region center
# after its step in generation ``log.generation[r]``, and the
# ``log.evaluations[r]`` trajectory rows that step made; repeating each
# generation that many times gives every evaluation its generation, which
# makes the distance discipline replayable.

rows = zip(log.generation.tolist(), log.instance.tolist(), log.centers)
centers = {(generation, instance): center for generation, instance, center in rows}
row_generation = np.repeat(log.generation, log.evaluations)
print("\nregion centers at a quarter and at three quarters of the budget:")
for fraction in (0.25, 0.75):
    target = fraction * cfg.budget
    # the rows are in generation order, so this counts the evaluations
    # made up to the end of each generation
    evals = np.searchsorted(row_generation, np.arange(generations), side="right")
    chosen = int(np.flatnonzero(evals <= target).max(initial=0))
    print(f"  after ~{int(target)} evals (generation {chosen}):")
    for instance in range(cfg.k):
        print(f"    instance {instance}: center {np.round(centers[chosen, instance], 3)}")

# ## The distance discipline, checked by hand
#
# Pick any sampled point of a later instance and compare it against the
# centers the earlier instances had in that generation.

violations = 0
rows = zip(trajectory.xs, trajectory.instance_id.tolist(), row_generation.tolist())
for x, instance, generation in rows:
    for earlier in range(instance):
        # boxes.distances is the kernel the cascade's filter compares with d_min
        if distances(x, centers[generation, earlier]) < cfg.d_min:
            violations += 1
print("\nclearance violations over the whole run:", violations)

# ## Batch quality versus plain restarts
#
# Three instances in one run give three separated basins; compare the
# best point of each instance with what a single unconstrained CMA-ES
# finds with the same budget.

by_instance = {}
for p in trajectory.points:
    if p.instance_id >= 0:
        best = by_instance.get(p.instance_id)
        if best is None or p.f < best.f:
            by_instance[p.instance_id] = p
print("\nper-instance best losses:")
for instance, p in sorted(by_instance.items()):
    print(f"  instance {instance}: loss {fn.loss(p.f):10.4g} at {np.round(p.x, 3)}")

# the region log can also be written as a plot-ready CSV, one row per
# instance and generation
log.write("cascade_regions.csv")
print("\nregion center table written to cascade_regions.csv")
