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
from splitcut.encoding import (
    _SideEnumeration,
    _icc_matrix,
    _matched_improper,
    _upper_bound_keep,
    column_plan,
)


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
    """The four upper bounds per vertex, binding or not."""
    cons = interval_constraints(g, problem)
    return tuple(
        np.array([getattr(c, name).hi for c in cons], dtype=np.int16)
        for name in ("left_own", "left_cross", "right_own", "right_cross")
    )


def full_enumeration(g, side, ub):
    """Every subset of the half, then the rows `_upper_bound_keep` keeps."""
    enum = _SideEnumeration(g, side, np.arange(1 << len(side), dtype=np.uint64))
    return enum if ub is None else enum.select(_upper_bound_keep(enum, ub))


def full_join_inputs(g, problem, prune):
    """`build_join_inputs` over full enumerations of both halves, as
    (query, query masks, data, data masks, improper pairs); without `prune`,
    every subset of each half is encoded."""
    n = g.n
    va, vb = split_halves(g)
    plan = column_plan(g, problem)
    ub = ub_of(g, problem) if prune else None
    q, d = full_enumeration(g, va, ub), full_enumeration(g, vb, ub)
    query = _icc_matrix(n, q, "query", plan.binds)
    data = _icc_matrix(n, d, "data", plan.binds) + plan.offset[None, :]
    improper = _matched_improper(query, q.masks, len(va), data, d.masks, len(vb))
    return query, q.masks, data, d.masks, improper
