"""How half-bipartitions become vectors whose dominance means feasibility.

Split the 4-cycle into halves {1,2} and {3,4}.  Each proper bipartition
(S, R) of the first half becomes a query vector, each proper (S', R') of
the second half becomes a data vector, and the combined cut (S u S',
R u R') satisfies the own-side-majority condition exactly when the query
dominates the data vector plus a constant offset, coordinatewise.  On the
cycle, the two diagonal pairings are feasible and the two others are not.

Every problem is first written as per-vertex intervals on neighbour
counts; the layout has 8 entries per vertex, one per interval bound, and
the offset carries the bounds.  A bound that no count can break (a lower
bound of 0, an upper bound at or above the degree) is left out of the
vectors the solver builds.
"""

import numpy as np

from splitcut import (
    Cut,
    InternalPartition,
    VertexSet,
    encode_icc_data,
    encode_icc_query,
    interval_constraints,
    make_offset,
    parse_graph,
    split_halves,
    validate_cut,
)
from splitcut.encoding import column_plan

g = parse_graph("4 4\n1 2\n2 3\n3 4\n4 1\n")
n = g.n
va, vb = split_halves(g)
print("halves (0-based):", sorted(va), "and", sorted(vb))

cons = interval_constraints(g, InternalPartition())
print("\ninterval form of vertex 0:", cons[0])
offset = make_offset(cons, n)

# the bounds that can fail: own-side counts of at least ceil(deg/2) = 1, in
# groups 1 (left vertices) and 5 (right vertices); the rest hold for any cut
cols = column_plan(g, InternalPartition()).binds.ravel()
print("binding columns:", np.flatnonzero(cols).tolist(), f"({cols.sum()} of {8 * n})")

sides_a = [([0], [1]), ([1], [0])]
sides_b = [([2], [3]), ([3], [2])]

print("\n  S    R    S'   R'   q >= p   feasible")
for sa, ra in sides_a:
    s, r = VertexSet.of(sa, n), VertexSet.of(ra, n)
    q = encode_icc_query(g, va, vb, s, r)
    for sb, rb in sides_b:
        s2, r2 = VertexSet.of(sb, n), VertexSet.of(rb, n)
        p = encode_icc_data(g, va, vb, s2, r2) + offset
        dominates = bool(np.all(q >= p))
        assert dominates == bool(np.all(q[cols] >= p[cols]))
        cut = Cut.from_left(s | s2)
        ok, _ = validate_cut(g, InternalPartition(), cut)
        print(f"  {sa}  {ra}  {sb}  {rb}   {str(dominates):5}    {ok}")
        assert dominates == ok

q = encode_icc_query(g, va, vb, VertexSet.of([0], n), VertexSet.of([1], n))
print("\nquery for S={0}, R={1}, binding columns only:", q[cols].tolist())
print("  group 1: |N(v) ∩ S|, or the +2n sentinel for v placed in R")
print("  group 5: |N(v) ∩ R|, or the +2n sentinel for v placed in S")
