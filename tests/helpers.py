"""Shared instance generators and reference join inputs for randomized
tests."""

import random

import numpy as np

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Graph,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    VertexConstraints,
    VertexSet,
    encode_half_row,
    random_graph,
    side_intervals,
    split_halves,
)
from splitcut.encoding import (
    _Columns,
    _enumerate_half,
    _half_neighbours,
    _join_matrix,
    _Rule,
    column_plan,
)
from splitcut.oracle import _feasible_chunks


def random_interval(rng: random.Random, n: int, slack: float = 0.0) -> Interval:
    """Random interval in [0, n]; with probability `slack` the full range."""
    if rng.random() < slack:
        return Interval(0, n)
    lo = rng.randint(0, n)
    return Interval(lo, rng.randint(lo, n))


def random_problem(rng: random.Random, n: int, kind: str | None = None):
    kind = kind or rng.choice(["dcut", "internal", "abdom", "icc"])
    if kind == "dcut":
        return DCut(min(rng.choice([0, 1, 2]), n))
    if kind == "internal":
        return InternalPartition()
    if kind == "abdom":
        return AlphaBetaDomination(random_interval(rng, n), random_interval(rng, n))
    per_vertex = tuple(
        VertexConstraints(*(random_interval(rng, n, slack=0.5) for _ in range(4)))
        for _ in range(n)
    )
    return IntervalConstrainedCut(per_vertex)


def reference_side_intervals(g, problem):
    """I_L and I_R of every vertex, the values of ns(v) = |N(v) ∩ L| that v
    accepts on the left and on the right, written per family from the
    problem's own fields.  Ends given by the problem are read inside
    [0, n], where every count lies.  Returns (L_L, U_L, L_R, U_R) lists."""
    n = g.n

    def clip(end):
        return min(max(end, 0), n)

    rows = []
    for v in range(n):
        deg = g.degree(v)
        if isinstance(problem, DCut):
            # the cross count is deg - ns on the left and ns on the right
            rows.append((max(0, deg - problem.d), deg, 0, min(problem.d, deg)))
        elif isinstance(problem, InternalPartition):
            # the own count, ns on the left and deg - ns on the right, is at
            # least the cross count
            rows.append(((deg + 1) // 2, deg, 0, deg // 2))
        elif isinstance(problem, AlphaBetaDomination):
            a, b = problem.alpha, problem.beta
            rows.append((clip(a.lo), min(a.hi, deg), clip(b.lo), min(b.hi, deg)))
        else:
            # the left-own and right-cross counts are ns, the left-cross
            # and right-own counts deg - ns
            c = problem.per_vertex[v]
            rows.append(
                (
                    max(clip(c.left_own.lo), deg - clip(c.left_cross.hi)),
                    min(clip(c.left_own.hi), deg - clip(c.left_cross.lo)),
                    max(clip(c.right_cross.lo), deg - clip(c.right_own.hi)),
                    min(clip(c.right_cross.hi), deg - clip(c.right_own.lo)),
                )
            )
    return [list(col) for col in zip(*rows)]


def ub_of(g, problem):
    """The caps on the four counts per vertex, binding or not, as the (4, n)
    table of `ColumnPlan.upper_bounds`, read off I_L = [L_L, U_L] and
    I_R = [L_R, U_R]: ns(v) <= U_L and the cross count <= deg(v) - L_L for
    v in L, the own count <= deg(v) - L_R and ns(v) <= U_R for v in R."""
    low_l, high_l, low_r, high_r = reference_side_intervals(g, problem)
    deg = [g.degree(v) for v in range(g.n)]
    caps = [
        high_l,
        [d - lo for d, lo in zip(deg, low_l)],
        [d - lo for d, lo in zip(deg, low_r)],
        high_r,
    ]
    return np.array(caps, dtype=np.int16).reshape(4, -1)


def reference_binds(g, problem):
    """The binding columns of the 2n layout in layout order (2v the low
    column of v, 2v + 1 its high one), flagged end by end: a low end of
    either side above 0, or a high end below deg(v)."""
    low_l, high_l, low_r, high_r = reference_side_intervals(g, problem)
    out = []
    for v in range(g.n):
        deg = g.degree(v)
        out += [low_l[v] > 0 or low_r[v] > 0, high_l[v] < deg or high_r[v] < deg]
    return np.array(out, dtype=bool)


def full_enumeration(g, side, ub):
    """Reference masks of one half, built without the solver's enumerator:
    every subset mask in ascending order (bit j = the j-th smallest vertex
    of the half), keeping only the subsets in which no vertex of the half
    breaks a cap of `ub` (every subset when `ub` is None)."""
    verts = sorted(side)
    masks = []
    for mask in range(1 << len(verts)):
        s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
        if ub is not None and not _meets_caps(g, verts, side.mask, mask, ub):
            continue
        masks.append(mask)
    return np.array(masks, dtype=np.uint64)


def reference_matrix(g, problem, side, masks, role):
    """One half's join matrix, row by row from the single-pair encoder: the
    binding columns of the problem (`reference_binds`) of `encode_half_row`
    on a query row, or of its negation on a data row, then the two
    properness columns, which hold 1 on a data row and 0 on a query row
    where the subset is empty (first column) or the whole half (second),
    and the other value elsewhere.  S holds the vertices of `side` whose
    bits are set in a mask (bit j = the j-th smallest vertex)."""
    intervals = side_intervals(g, problem)
    binds = reference_binds(g, problem)
    sign = 1 if role == "query" else -1
    verts = sorted(side)
    whole = (1 << len(side)) - 1
    rows = []
    for mask in masks.tolist():
        s = VertexSet.of([v for j, v in enumerate(verts) if mask >> j & 1], g.n)
        row = (sign * encode_half_row(g, intervals, side, s))[binds].tolist()
        ends = [int(mask == 0), int(mask == whole)]
        rows.append(row + (ends if role == "data" else [1 - e for e in ends]))
    return np.array(rows, dtype=np.int16).reshape(-1, int(binds.sum()) + 2)


def full_join_inputs(g, problem, prune):
    """`build_join_inputs` over full enumerations of both halves, as
    (query, query masks, data, data masks); without `prune`, every subset
    of each half is encoded."""
    va, vb = split_halves(g)
    ub = ub_of(g, problem) if prune else None
    qmasks, dmasks = full_enumeration(g, va, ub), full_enumeration(g, vb, ub)
    query = reference_matrix(g, problem, va, qmasks, "query")
    data = reference_matrix(g, problem, vb, dmasks, "data")
    return query, qmasks, data, dmasks


def every_column(g):
    """A problem on g in which all 2n columns bind, with different ends on
    the two sides: I_L = [1, deg(v) - 1] and I_R = [0, deg(v) - 2].  Its
    join matrices carry every count of every vertex, and the side of each
    vertex of the half."""
    n = g.n
    left = Interval(1, n)
    cons = VertexConstraints(left, left, Interval(min(2, n), n), Interval(0, n))
    return IntervalConstrainedCut((cons,) * n)


def enumerate_half(g, side, ub, last_in_r=False):
    """`_enumerate_half` of one half of g under the caps `ub` (the table of
    `ColumnPlan.upper_bounds`, or None for every subset)."""
    i = int(side != split_halves(g)[0])
    return _enumerate_half(_half_neighbours(g)[i], side, _Rule.of(ub), last_in_r)


def half_matrix(g, problem, half):
    """`_join_matrix` of an enumerated half of g under the problem's column
    plan: the query matrix when the half is V_A, the data matrix otherwise."""
    i = int(half.side != split_halves(g)[0])
    return _join_matrix(_Columns.of(_half_neighbours(g), column_plan(g, problem)), half, i)


def _meets_caps(g, verts, placed, mask, ub):
    """Whether every placed vertex of a half meets its caps in `ub` over its
    placed neighbours, with S the half's vertices whose bits `mask` sets:
    ns <= U_L and nr <= deg(v) - L_L in S, nr <= deg(v) - L_R and
    ns <= U_R in R (`ub_of`)."""
    high_l, cross_l, own_r, high_r = ub
    s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
    for v in verts:
        if placed >> v & 1:
            ns = (g.adj[v] & s).bit_count()
            nr = (g.adj[v] & placed & ~s).bit_count()
            if s >> v & 1:
                if ns > high_l[v] or nr > cross_l[v]:
                    return False
            elif nr > own_r[v] or ns > high_r[v]:
                return False
    return True


def reference_levels(g, side, ub, check_rows, last_in_r=False):
    """The enumeration's schedule in pure Python: the half's vertices are
    placed one at a time, each placement doubling the rows (the last adds
    none with `last_in_r`), and the rows are checked once they pass
    `check_rows` and after the last placement.  A check keeps the rows in
    which every placed vertex meets its caps in `ub` over its placed
    neighbours; no check runs when `ub` is None.  Returns the kept masks
    and the level sizes, the empty row first."""
    verts = sorted(side)
    k = len(verts)
    rows, sizes = [0], [1]
    for j in range(k):
        if not (last_in_r and j == k - 1):
            rows += [m | 1 << j for m in rows]
        sizes.append(len(rows))
        if ub is not None and (len(rows) > check_rows or j == k - 1):
            placed = sum(1 << v for v in verts[: j + 1])
            rows = [m for m in rows if _meets_caps(g, verts, placed, m, ub)]
    return np.array(rows, dtype=np.uint64), sizes


def reference_join_inputs(g, problem, check_rows=256, mirror=False):
    """`build_join_inputs` by the pure-Python references, as (query, query
    masks, data, data masks, generated); `generated` sums the level sizes
    of both halves."""
    va, vb = split_halves(g)
    ub = ub_of(g, problem)
    qmasks, qsizes = reference_levels(g, va, ub, check_rows)
    dmasks, dsizes = reference_levels(g, vb, ub, check_rows, last_in_r=mirror)
    query = reference_matrix(g, problem, va, qmasks, "query")
    data = reference_matrix(g, problem, vb, dmasks, "data")
    return query, qmasks, data, dmasks, sum(qsizes) + sum(dsizes)


def disjoint_union(sizes, p, rng: random.Random):
    """The disjoint union of `random_graph` components of the given sizes
    and edge probability, its vertex labels shuffled so that components
    straddle both halves."""
    n = sum(sizes)
    label = list(range(n))
    rng.shuffle(label)
    edges, start = [], 0
    for k in sizes:
        edges += [(label[start + u], label[start + v]) for u, v in random_graph(k, p, rng).edges()]
        start += k
    return Graph.from_edges(n, edges)


def components(g):
    """The vertex lists of g's connected components, each ascending."""
    seen, parts = 0, []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        part, grown = 0, 1 << v
        while grown != part:
            part = grown
            for u in range(g.n):
                if part >> u & 1:
                    grown |= g.adj[u]
        seen |= part
        parts.append([u for u in range(g.n) if part >> u & 1])
    return parts


def product_strata(g, problem):
    """The feasible proper ordered cuts of g per left-side size 0..n, from
    its connected components alone.  Each vertex's constraint reads only its
    own neighbourhood, so the size strata of all feasible bipartitions, the
    improper ones included, are the convolution of the components' strata,
    each enumerated by the definition-direct pass `_feasible_chunks`; the
    improper ones are the only ones in strata 0 and n.  Neither the encoder,
    the split nor the index is involved."""
    strata = [1]
    for part in components(g):
        at = {v: i for i, v in enumerate(part)}
        sub = Graph.from_edges(
            len(part), [(at[u], at[v]) for u, v in g.edges() if u in at and v in at]
        )
        own = problem
        if isinstance(problem, IntervalConstrainedCut):
            own = IntervalConstrainedCut(tuple(problem.per_vertex[v] for v in part))
        counts = np.zeros(len(part) + 1, dtype=np.int64)
        for masks, ok in _feasible_chunks(sub, own):
            counts += np.bincount(np.bitwise_count(masks[ok]), minlength=len(part) + 1)
        product = [0] * (len(strata) + len(part))
        for i, a in enumerate(strata):
            for j, b in enumerate(counts.tolist()):
                product[i + j] += a * b
        strata = product
    strata[0] = strata[-1] = 0
    return strata
