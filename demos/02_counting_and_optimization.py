"""Exact counting, fixed-size counting, and left-side optimization.

Counts are over ordered proper bipartitions (V_L, V_R): a cut and its
reverse are two outcomes.  Fixing |V_L| = t stratifies the count.  A
minimize or maximize solve runs one join whose matches are counted per size
stratum |V_L|; `count_by_size` returns those strata.
"""

import random

from splitcut import (
    AlphaBetaDomination,
    Interval,
    InternalPartition,
    ProblemSpec,
    count_by_size,
    count_solutions,
    optimize_size,
    parse_graph,
    random_graph,
    solve_with_size,
)

k3 = parse_graph("3 3\n1 2\n2 3\n1 3\n")

# alpha = [0,0] makes the left side an independent set; on a triangle only
# the three singletons qualify
spec = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
print("independent-set-style cuts of the triangle:", count_solutions(k3, spec))
for t in (1, 2):
    print(f"  with |V_L| = {t}:", solve_with_size(k3, spec, t).count)
print("largest feasible left side:", optimize_size(k3, spec, "maximize"))

# the strata of the min/max join against one fixed-size count per size
g = random_graph(12, 0.4, random.Random(7))
internal = ProblemSpec(InternalPartition())
total = count_solutions(g, internal)
strata = count_by_size(g, internal)
print("\nrandom instance on", g.n, "vertices")
print("total feasible ordered cuts:", total)
print("per-size counts |V_L| = 0..n:", strata)
print("smallest feasible left side:", optimize_size(g, internal, "minimize"))
assert strata[1:-1] == [solve_with_size(g, internal, t).count for t in range(1, g.n)]
assert sum(strata) == total
print("each stratum equals its fixed-size count, and they add up to the total")
