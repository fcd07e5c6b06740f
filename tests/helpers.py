"""Shared instance generators and reference join inputs for randomized tests."""

import random

import numpy as np

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    VertexConstraints,
    interval_constraints,
    split_halves,
)
from splitcut.encoding import _HalfRows, _icc_blocks, column_plan


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
    """Reference rows of one half, built without the solver's enumerator:
    every subset mask in ascending order, its neighbour counts by a direct
    popcount, and only the subsets in which no vertex of the half breaks a
    cap of `ub` (every subset when `ub` is None)."""
    n = g.n
    verts = sorted(side)
    masks, ns, nr = [], [], []
    for mask in range(1 << len(verts)):
        s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
        row_s = [(a & s).bit_count() for a in g.adj]
        row_r = [(a & (side.mask ^ s)).bit_count() for a in g.adj]
        if ub is not None:
            a_hi, b_hi, c_hi, d_hi = ub
            breaks = [
                row_s[v] > a_hi[v] or row_r[v] > b_hi[v]
                if s >> v & 1
                else row_r[v] > c_hi[v] or row_s[v] > d_hi[v]
                for v in verts
            ]
            if any(breaks):
                continue
        masks.append(mask)
        ns.append(row_s)
        nr.append(row_r)
    return _HalfRows(
        side,
        np.array(masks, dtype=np.uint64),
        np.array(ns, dtype=np.int16).reshape(-1, n),
        np.array(nr, dtype=np.int16).reshape(-1, n),
        generated=1 << len(verts),
    )


def icc_matrix(n, half, role, binds):
    """The binding columns of one half, without offset or properness
    columns: `_icc_blocks` side by side."""
    return np.concatenate(_icc_blocks(n, half, role, binds), axis=1)


def properness_columns(masks, k, role):
    """The two properness columns of a half of k vertices, by the rule: a
    query row holds 0 and a data row 1 where its subset is empty (first
    column) or the whole half (second), and the other value elsewhere."""
    ends = [[m == 0, m == (1 << k) - 1] for m in masks.tolist()]
    cols = np.array(ends, dtype=np.int16).reshape(-1, 2)
    return cols if role == "data" else 1 - cols


def full_join_inputs(g, problem, prune):
    """`build_join_inputs` over full enumerations of both halves, as
    (query, query masks, data, data masks); without `prune`, every subset
    of each half is encoded."""
    n = g.n
    va, vb = split_halves(g)
    plan = column_plan(g, problem)
    ub = ub_of(g, problem) if prune else None
    q, d = full_enumeration(g, va, ub), full_enumeration(g, vb, ub)
    query = icc_matrix(n, q, "query", plan.binds)
    data = icc_matrix(n, d, "data", plan.binds) + plan.offset[None, :]
    query = np.concatenate([query, properness_columns(q.masks, len(va), "query")], axis=1)
    data = np.concatenate([data, properness_columns(d.masks, len(vb), "data")], axis=1)
    return query, q.masks, data, d.masks
