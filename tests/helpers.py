"""Shared instance generators, the solver's join route at any n, and
reference join inputs for randomized tests."""

import random
from dataclasses import replace

import numpy as np

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    SolverOptions,
    VertexConstraints,
    count_by_size,
    interval_constraints,
    solve,
    split_halves,
)
from splitcut.encoding import (
    ColumnPlan,
    _Columns,
    _enumerate_half,
    _half_neighbours,
    _join_matrix,
    _Rule,
    column_plan,
)
from splitcut.problems import validate_spec
from splitcut.solver import _BRUTE_MAX_N, _Join, _solve_join


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


def solve_join(g, spec):
    """`solve` by the split-and-list join, which `solve` itself runs only
    above n = 8; the time is not measured."""
    validate_spec(g, spec)
    return _solve_join(g, spec, SolverOptions())


def join_strata(g, spec):
    """`count_by_size` by the split-and-list join, at any n."""
    spec = replace(spec, mode="minimize_left", size_target=None)
    validate_spec(g, spec)
    return _Join(g, spec, SolverOptions()).strata_by_size().tolist()


def solve_routes(g):
    """`solve`, and where it enumerates every cut (n <= 8) the join too."""
    return [solve, solve_join] if g.n <= _BRUTE_MAX_N else [solve]


def strata_routes(g):
    """`count_by_size`, and where it enumerates every cut the join too."""
    return [count_by_size, join_strata] if g.n <= _BRUTE_MAX_N else [count_by_size]


def ub_of(g, problem):
    """The caps on the four counts per vertex, binding or not, as the (4, n)
    table of `ColumnPlan.upper_bounds`: a count's upper bound, or deg(v)
    minus the lower bound of the other count of its side when that is
    smaller, since the two counts add up to deg(v)."""
    cons = interval_constraints(g, problem)
    pairs = [
        ("left_own", "left_cross"),
        ("left_cross", "left_own"),
        ("right_own", "right_cross"),
        ("right_cross", "right_own"),
    ]
    return np.array(
        [
            [
                min(getattr(c, count).hi, g.degree(v) - getattr(c, other).lo)
                for v, c in enumerate(cons)
            ]
            for count, other in pairs
        ],
        dtype=np.int16,
    ).reshape(4, -1)


def full_enumeration(g, side, ub):
    """Reference masks of one half, built without the solver's enumerator:
    every subset mask in ascending order (bit j = the j-th smallest vertex
    of the half), keeping only the subsets in which no vertex of the half
    breaks a cap of `ub` (every subset when `ub` is None)."""
    verts = sorted(side)
    masks = []
    for mask in range(1 << len(verts)):
        s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
        if ub is not None:
            a_hi, b_hi, c_hi, d_hi = ub
            breaks = []
            for v in verts:
                ns = (g.adj[v] & s).bit_count()
                nr = (g.adj[v] & (side.mask ^ s)).bit_count()
                if s >> v & 1:
                    breaks.append(ns > a_hi[v] or nr > b_hi[v])
                else:
                    breaks.append(nr > c_hi[v] or ns > d_hi[v])
            if any(breaks):
                continue
        masks.append(mask)
    return np.array(masks, dtype=np.uint64)


def layout_row(g, side, mask, role):
    """The 8n-entry vector of one subset of a half, by the rule of the
    `encode_icc_query`/`_data` docstrings, extended to empty sides: S holds
    the vertices of `side` whose bits are set in `mask` (bit j = the j-th
    smallest vertex) and R the rest.  Entry k*n + v of a query holds the
    k-th of (ns, -ns, nr, -nr, nr, -nr, ns, -ns), with ns = |N(v) ∩ S| and
    nr = |N(v) ∩ R|, except the +2n sentinel in groups 5-8 for v in S and
    in groups 1-4 for v in R; a data entry holds its negation."""
    n = g.n
    verts = sorted(side)
    s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
    r = side.mask ^ s
    big = 2 * n
    sign = 1 if role == "query" else -1
    out = [0] * (8 * n)
    for v in range(n):
        ns, nr = (g.adj[v] & s).bit_count(), (g.adj[v] & r).bit_count()
        row = [ns, -ns, nr, -nr, nr, -nr, ns, -ns]
        if s >> v & 1:
            row[4:] = [big] * 4
        elif r >> v & 1:
            row[:4] = [big] * 4
        for k in range(8):
            out[k * n + v] = sign * row[k]
    return out


def reference_matrix(g, side, masks, role, plan):
    """One half's join matrix, row by row in pure Python: the binding
    columns of `plan` in layout order (`layout_row`, plus the offset on a
    data row), then the two properness columns, which hold 1 on a data row
    and 0 on a query row where the subset is empty (first column) or the
    whole half (second), and the other value elsewhere."""
    binds = plan.binds.ravel().tolist()
    offset = plan.bounds.ravel().tolist() if role == "data" else [0] * len(binds)
    whole = (1 << len(side)) - 1
    rows = []
    for mask in masks.tolist():
        row = layout_row(g, side, mask, role)
        row = [x + b for x, b, keep in zip(row, offset, binds) if keep]
        ends = [int(mask == 0), int(mask == whole)]
        rows.append(row + (ends if role == "data" else [1 - e for e in ends]))
    return np.array(rows, dtype=np.int16).reshape(-1, sum(binds) + 2)


def full_join_inputs(g, problem, prune):
    """`build_join_inputs` over full enumerations of both halves, as
    (query, query masks, data, data masks); without `prune`, every subset
    of each half is encoded."""
    va, vb = split_halves(g)
    plan = column_plan(g, problem)
    ub = ub_of(g, problem) if prune else None
    qmasks, dmasks = full_enumeration(g, va, ub), full_enumeration(g, vb, ub)
    query = reference_matrix(g, va, qmasks, "query", plan)
    data = reference_matrix(g, vb, dmasks, "data", plan)
    return query, qmasks, data, dmasks


def every_column(g):
    """A plan on g in which all 8n columns bind, with zero bounds: its join
    matrices carry every count of every vertex outside the sentinels."""
    deg = np.array([g.degree(v) for v in range(g.n)], dtype=np.int16)
    return ColumnPlan(
        np.zeros((8, g.n), dtype=np.int16), np.ones((8, g.n), dtype=bool), deg
    )


def enumerate_half(g, side, ub, last_in_r=False):
    """`_enumerate_half` of one half of g under the caps `ub` (the table of
    `ColumnPlan.upper_bounds`, or None for every subset)."""
    i = int(side != split_halves(g)[0])
    return _enumerate_half(_half_neighbours(g)[i], side, _Rule.of(ub), last_in_r)


def half_matrix(g, plan, half):
    """`_join_matrix` of an enumerated half of g: the query matrix when the
    half is V_A, the data matrix otherwise."""
    i = int(half.side != split_halves(g)[0])
    return _join_matrix(_Columns.of(_half_neighbours(g), plan), half, i)


def _meets_caps(g, verts, placed, mask, ub):
    """Whether every placed vertex of a half meets its caps in `ub` over its
    placed neighbours, with S the half's vertices whose bits `mask` sets."""
    a_hi, b_hi, c_hi, d_hi = ub
    s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
    for v in verts:
        if placed >> v & 1:
            ns = (g.adj[v] & s).bit_count()
            nr = (g.adj[v] & placed & ~s).bit_count()
            if s >> v & 1:
                if ns > a_hi[v] or nr > b_hi[v]:
                    return False
            elif nr > c_hi[v] or ns > d_hi[v]:
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
    plan = column_plan(g, problem)
    ub = ub_of(g, problem)
    qmasks, qsizes = reference_levels(g, va, ub, check_rows)
    dmasks, dsizes = reference_levels(g, vb, ub, check_rows, last_in_r=mirror)
    query = reference_matrix(g, va, qmasks, "query", plan)
    data = reference_matrix(g, vb, dmasks, "data", plan)
    return query, qmasks, data, dmasks, sum(qsizes) + sum(dsizes)
