"""Ground-truth engines: full 2^n enumeration and a quadratic pairwise join.

`brute_force_count` evaluates the problem definitions directly over every
left-side bitmask with vectorized popcounts; it shares no code with the
validator or the encoders, so agreement between the three routes is a real
check.  `naive_pair_join` runs the same enumerate-and-encode pipeline as the
solver, one join over the subsets of both halves that pruning keeps, but
compares every (query, data) pair directly, isolating encoder bugs from
index bugs.  It never mirrors the join, so on symmetric problems it checks
the solver's reversed-pair rule by an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dominance import _block_counts
from .encoding import build_join_inputs
from .errors import ResourceLimitError
from .graph import Cut, Graph, VertexSet
from .problems import (
    AlphaBetaDomination,
    DCut,
    IntervalConstrainedCut,
    InternalPartition,
    Problem,
    ProblemSpec,
)

__all__ = [
    "OracleResult",
    "brute_first_feasible",
    "brute_force_count",
    "naive_pair_join",
]

BRUTE_FORCE_MAX_N = 26
PAIR_JOIN_MAX_N = 36

_CHUNK_BITS = 18


@dataclass
class OracleResult:
    """Exact enumeration results for one instance."""

    count: int
    cuts: list[Cut] | None = None
    min_left: int | None = None
    max_left: int | None = None
    counts_by_size: np.ndarray | None = None


def _as_problem(spec: ProblemSpec | Problem) -> tuple[Problem, int | None]:
    if isinstance(spec, ProblemSpec):
        return spec.problem, spec.size_target
    return spec, None


def _feasible_chunks(g: Graph, problem: Problem) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (left-side masks, feasibility flags) over all 2^n bipartitions.

    Feasibility here ignores properness; callers filter the two improper
    masks.  Bounds are held as int64 so user intervals far outside [0, n]
    compare without overflow.
    """
    n = g.n
    adj = np.array(g.adj, dtype=np.uint64)
    deg = np.array([g.degree(v) for v in range(n)], dtype=np.int16)
    shifts = np.arange(n, dtype=np.uint64)

    if isinstance(problem, IntervalConstrainedCut):
        bounds = np.array(
            [
                (
                    c.left_own.lo, c.left_own.hi,
                    c.left_cross.lo, c.left_cross.hi,
                    c.right_own.lo, c.right_own.hi,
                    c.right_cross.lo, c.right_cross.hi,
                )
                for c in problem.per_vertex
            ],
            dtype=np.int64,
        ).T

    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)
    for lo in range(0, total, step):
        masks = np.arange(lo, min(lo + step, total), dtype=np.uint64)
        in_left = np.bitwise_count(masks[:, None] & adj[None, :]).astype(np.int16)
        in_right = deg[None, :] - in_left
        member = ((masks[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
        if isinstance(problem, DCut):
            cross = np.where(member, in_right, in_left)
            per_vertex = cross <= problem.d
        elif isinstance(problem, InternalPartition):
            own = np.where(member, in_left, in_right)
            other = deg[None, :] - own
            per_vertex = own >= other
        elif isinstance(problem, AlphaBetaDomination):
            a, b = problem.alpha, problem.beta
            ok_l = (a.lo <= in_left) & (in_left <= a.hi)
            ok_r = (b.lo <= in_left) & (in_left <= b.hi)
            per_vertex = np.where(member, ok_l, ok_r)
        elif isinstance(problem, IntervalConstrainedCut):
            ok_l = (
                (bounds[0] <= in_left) & (in_left <= bounds[1])
                & (bounds[2] <= in_right) & (in_right <= bounds[3])
            )
            ok_r = (
                (bounds[4] <= in_right) & (in_right <= bounds[5])
                & (bounds[6] <= in_left) & (in_left <= bounds[7])
            )
            per_vertex = np.where(member, ok_l, ok_r)
        else:
            raise ValueError(f"unknown problem type {type(problem).__name__}")
        yield masks, per_vertex.all(axis=1)


def brute_force_count(
    g: Graph,
    spec: ProblemSpec | Problem,
    *,
    materialize: bool = False,
    max_n: int = BRUTE_FORCE_MAX_N,
    materialize_limit: int = 1 << 20,
) -> OracleResult:
    """Enumerate all 2^n ordered bipartitions and count the feasible proper ones.

    Also reports counts stratified by |V_L| and the extreme feasible sizes;
    with `materialize`, returns the feasible cuts themselves.
    """
    problem, size_target = _as_problem(spec)
    n = g.n
    if n > max_n:
        raise ResourceLimitError(f"n={n} exceeds brute-force guard {max_n}")
    full = np.uint64((1 << n) - 1)
    by_size = np.zeros(n + 1, dtype=np.int64)
    hit_masks: list[int] = []
    for masks, ok in _feasible_chunks(g, problem):
        ok &= (masks != 0) & (masks != full)
        if size_target is not None:
            ok &= np.bitwise_count(masks) == size_target
        sizes = np.bitwise_count(masks[ok]).astype(np.int64)
        by_size += np.bincount(sizes, minlength=n + 1)
        if materialize:
            hit_masks.extend(masks[ok].tolist())
            if len(hit_masks) > materialize_limit:
                raise ResourceLimitError(
                    f"more than {materialize_limit} cuts to materialize"
                )
    count = int(by_size.sum())
    feasible_sizes = np.nonzero(by_size)[0]
    cuts = None
    if materialize:
        cuts = [Cut.from_left(VertexSet(m, n)) for m in hit_masks]
    return OracleResult(
        count=count,
        cuts=cuts,
        min_left=int(feasible_sizes[0]) if feasible_sizes.size else None,
        max_left=int(feasible_sizes[-1]) if feasible_sizes.size else None,
        counts_by_size=by_size,
    )


def brute_first_feasible(
    g: Graph,
    spec: ProblemSpec | Problem,
    *,
    max_n: int = BRUTE_FORCE_MAX_N,
) -> int | None:
    """Left-side mask of the first feasible proper cut in mask order, or None."""
    problem, size_target = _as_problem(spec)
    if g.n > max_n:
        raise ResourceLimitError(f"n={g.n} exceeds brute-force guard {max_n}")
    full = np.uint64((1 << g.n) - 1)
    for masks, ok in _feasible_chunks(g, problem):
        ok &= (masks != 0) & (masks != full)
        if size_target is not None:
            ok &= np.bitwise_count(masks) == size_target
        idx = np.nonzero(ok)[0]
        if idx.size:
            return int(masks[idx[0]])
    return None


def naive_pair_join(
    g: Graph, spec: ProblemSpec | Problem, *, max_n: int = PAIR_JOIN_MAX_N
) -> int:
    """Exact solution count via the solver's pipeline with a pairwise join.

    Every query row over the kept subsets of V_A is compared against every
    data row over the kept subsets of V_B directly; no search structure is
    involved.
    Each query row's matches are counted per data row size |S'|; a size
    target keeps only the pairs with |S| + |S'| = t.
    """
    problem, size_target = _as_problem(spec)
    if g.n > max_n:
        raise ResourceLimitError(f"n={g.n} exceeds pair-join guard {max_n}")
    inputs = build_join_inputs(g, problem)
    query, data = inputs.query, inputs.data
    qsizes = np.bitwise_count(inputs.query_masks).astype(np.int64)
    dsizes = np.bitwise_count(inputs.data_masks).astype(np.int64)
    counts = _block_counts(data, query, dsizes, g.n - g.n // 2 + 1)
    if size_target is None:
        return int(counts.sum())
    return sum(
        int(counts[qsizes == s, size_target - s].sum())
        for s in range(g.n // 2 + 1)
        if 0 <= size_target - s < counts.shape[1]
    )
