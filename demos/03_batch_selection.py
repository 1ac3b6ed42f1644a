# ## Picking a batch out of a portfolio
#
# Any optimizer run leaves behind a portfolio of evaluated points, a
# ``Trajectory`` whose row i is evaluation i.  The
# selection problem: keep the best point as the leader, then choose up to
# k - 1 more points that are all pairwise at least d_min apart with the
# smallest possible sum of objective values.  Three selectors trade
# effort for quality; greedy and exact are never worse than clearing:
#
#   clearing  - one best-first sweep in fitness order, cheap and cheerful
#   greedy    - repairs the clearing batch: drop one member, worst first,
#               re-sweep without it, keep the refill if it is larger or
#               as large with a lower fitness sum, and start over
#   exact     - branch and bound over subsets, optimal with a certificate

import numpy as np

from divbatch import (
    EvaluatedPoint,
    Trajectory,
    clearing_select,
    exact_select,
    greedy_select,
    make_function,
    run_random,
    verify_batch,
)

# ## A four-point portfolio where the cheap sweep fails
#
# Points on a line: A(0) is the leader, D(1.5) is second best but blocks
# both B(1.0) and C(2.0).  The clearing sweep grabs D after A and then
# finds nothing else, while the smarter selectors notice that {A, B, C}
# is feasible at size 3.  A list of points becomes a trajectory through
# ``Trajectory.from_points``; a batch holds its members as columns too.

pts = Trajectory.from_points(
    [
        EvaluatedPoint(x=np.array([0.0]), f=0.0, eval_index=0, instance_id=-1),
        EvaluatedPoint(x=np.array([1.0]), f=1.0, eval_index=1, instance_id=-1),
        EvaluatedPoint(x=np.array([2.0]), f=5.0, eval_index=2, instance_id=-1),
        EvaluatedPoint(x=np.array([1.5]), f=0.5, eval_index=3, instance_id=-1),
    ]
)
for name, selector in (("clearing", clearing_select), ("greedy", greedy_select), ("exact", exact_select)):
    batch = selector(pts, 3, 1.0)
    chosen = batch.eval_index.tolist()
    print(
        f"{name:9s} k=3 d_min=1: picked points {chosen} "
        f"(complete={batch.complete}, sum f={sum(batch.fs.tolist())})"
    )

# ## On a real portfolio
#
# 300 random evaluations of the 2-D Griewank instance, then a batch of
# five points at least 2 apart.

fn = make_function("griewank", 2, 0)
portfolio = run_random(fn, 300, seed=1)
print("\n300 random points on 2-D Griewank, k=5, d_min=2:")
for name, selector in (("clearing", clearing_select), ("greedy", greedy_select), ("exact", exact_select)):
    batch = selector(portfolio, 5, 2.0)
    losses = [round(fn.loss(f), 3) for f in batch.fs.tolist()]
    print(
        f"  {name:9s} losses {losses} "
        f"(complete={batch.complete}, proved optimal={batch.proved_optimal})"
    )
    # every returned batch respects the constraints it claims to satisfy
    assert verify_batch(batch, 2.0, portfolio)

# ## What the distance requirement costs
#
# The leader is free, but every additional separated point gets more
# expensive as d_min grows.

print("\nexact batch average loss as d_min grows (same portfolio, k=4):")
for d_min in (1.0, 4.0, 7.0, 9.0):
    batch = exact_select(portfolio, 4, d_min)
    avg = np.mean([fn.loss(f) for f in batch.fs.tolist()])
    print(
        f"  d_min={d_min:3}: avg loss {avg:8.4f} over {len(batch)} points "
        f"(complete={batch.complete})"
    )
