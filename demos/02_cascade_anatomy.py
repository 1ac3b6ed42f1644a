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

fn = make_function("gauss_peaks", dimension=2, seed=0)
cfg = DsConfig(k=3, d_min=2.0, budget=600, seed=0)
trajectory, log = run_ds(cfg, fn, return_log=True)

print("one run on the 2-D Gaussian peaks landscape:")
print("  evaluations :", len(trajectory))
print("  generations :", len(log.evals_after_generation))
print("  epochs      :", max(e for e, _, _ in log.epoch_starts) + 1)

# ## Where the regions went
#
# The log snapshots every instance's region center after every
# generation, which is what makes the distance discipline replayable.

centers = {(s.generation, s.instance): s.center for s in log.snapshots}
print("\nregion centers at a quarter and at three quarters of the budget:")
for fraction in (0.25, 0.75):
    target = fraction * cfg.budget
    chosen = 0
    for g, evals in sorted(log.evals_after_generation.items()):
        if evals <= target:
            chosen = g
    print(f"  after ~{int(target)} evals (generation {chosen}):")
    for instance in range(cfg.k):
        print(f"    instance {instance}: center {np.round(centers[chosen, instance], 3)}")

# ## The distance discipline, checked by hand
#
# Pick any sampled point of a later instance and compare it against the
# centers the earlier instances had in that generation.

violations = 0
for p in trajectory.points:
    if p.instance_id <= 0:
        continue
    _, generation = log.point_generation[p.eval_index]
    for earlier in range(p.instance_id):
        center = centers.get((generation, earlier))
        if center is not None and np.linalg.norm(p.x - center) < cfg.d_min:
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
print("\nregion snapshot table written to cascade_regions.csv")
