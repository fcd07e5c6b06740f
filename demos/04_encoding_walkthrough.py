"""How half-bipartitions become vectors whose dominance means feasibility.

Split the 4-cycle into halves {1,2} and {3,4}.  Each proper bipartition
(S, R) of the first half becomes a query vector, each proper (S', R') of
the second half becomes a data vector, and the combined cut (S u S',
R u R') satisfies the own-side-majority condition exactly when the query
dominates the data vector coordinatewise.  On the cycle, the two diagonal
pairings are feasible and the two others are not.

Every problem is first written as two intervals per vertex on
ns(v) = |N(v) ∩ L| (`side_intervals`): I_L(v) for v on the left, I_R(v)
for v on the right.  A vertex's own and cross counts add up to its
degree, so both are read off ns(v).  The layout has 2 entries per
vertex, one for each end of the interval: the half that holds v knows its
side and subtracts that side's end from its count.  An end that no count
can break (a low end of 0, a high end at the degree) on both sides is left
out of the vectors the solver builds.
"""

import numpy as np

from splitcut import (
    Cut,
    InternalPartition,
    VertexSet,
    encode_half_row,
    parse_graph,
    side_intervals,
    split_halves,
    validate_cut,
)
from splitcut.encoding import column_plan

g = parse_graph("4 4\n1 2\n2 3\n3 4\n4 1\n")
n = g.n
va, vb = split_halves(g)
print("halves (0-based):", sorted(va), "and", sorted(vb))

cons = side_intervals(g, InternalPartition())
print("\nI_L and I_R of vertex 0 on ns(0) = |N(0) ∩ L|:", cons[0].tolist())
plan = column_plan(g, InternalPartition())

# the ends that can fail: the low end ceil(deg/2) = 1 on the left and the
# high end floor(deg/2) = 1 on the right, so both columns of every vertex
cols = plan.binds.ravel()
print("binding columns:", np.flatnonzero(cols).tolist(), f"({cols.sum()} of {2 * n})")

sides_a = [[0], [1]]
sides_b = [[2], [3]]

print("\n  S    S'   q >= p   feasible")
for sa in sides_a:
    s = VertexSet.of(sa, n)
    q = encode_half_row(g, cons, va, s)
    for sb in sides_b:
        s2 = VertexSet.of(sb, n)
        p = -encode_half_row(g, cons, vb, s2)
        dominates = bool(np.all(q >= p))
        assert dominates == bool(np.all(q[cols] >= p[cols]))
        cut = Cut.from_left(s | s2)
        ok, _ = validate_cut(g, InternalPartition(), cut)
        print(f"  {sa}  {sb}   {str(dominates):5}    {ok}")
        assert dominates == ok

q = encode_half_row(g, cons, va, VertexSet.of([0], n))
print("\nquery for S={0}, R={1}:", q.tolist())
print("  column 2v:     |N(v) ∩ S| - low end of v's side (v in the half), or |N(v) ∩ S|")
print("  column 2v + 1: high end of v's side - |N(v) ∩ S| (v in the half), or -|N(v) ∩ S|")
print("a data vector is the negated row of the second half")
