"""Vector encodings of half-bipartitions.

A bipartition (S, R) of the first half yields a query vector and a
bipartition (S', R') of the second half yields a data vector, arranged so
that componentwise dominance (query >= data) holds exactly when the combined
cut (S ∪ S', rest) is feasible.  Two layouts exist: a 2-entries-per-vertex
form for the own-side-majority problem and an 8-entries-per-vertex form for
general interval constraints, where the constraint bounds enter through a
constant offset vector added to every data vector.

Entries are laid out group-major: column (k-1)*n + i holds the k-th entry of
vertex i.  Single-pair encoders are the reference implementation for proper
half-bipartitions; the batch builders produce whole matrices with numpy and
are tested against them.

The batch builders encode every subset of each half, the empty set and the
whole half included, so one join over the two lists sees all 2^n left-side
masks exactly once.  Only two of those pairs, (∅, ∅) and (V_A, V_B), give an
improper cut; `JoinInputs.improper` names them when they match so callers
can take them off the join's counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, VertexSet, neighbor_count, split_halves
from .problems import (
    InternalPartition,
    Problem,
    VertexConstraints,
    interval_constraints,
)

__all__ = [
    "EncodedVector",
    "JoinInputs",
    "OffsetVector",
    "build_join_inputs",
    "encode_icc_data",
    "encode_icc_query",
    "encode_internal_data",
    "encode_internal_query",
    "make_offset",
]


@dataclass(frozen=True, eq=False)
class EncodedVector:
    """Integer vector encoding one half-bipartition, tagged with its origin."""

    entries: np.ndarray
    origin: tuple[VertexSet, VertexSet]
    role: str  # "query" | "data"

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True, eq=False)
class OffsetVector:
    """Constant vector of interval bounds added to every data vector."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def _check_half_bipartition(half: VertexSet, s: VertexSet, r: VertexSet) -> None:
    if s.n != half.n or r.n != half.n:
        raise ValueError("bipartition sides over a different universe")
    if s.mask & r.mask or (s.mask | r.mask) != half.mask:
        raise ValueError("sides do not bipartition the half")
    if s.mask == 0 or r.mask == 0:
        raise ValueError("improper half-bipartition: one side is empty")


def encode_internal_query(
    g: Graph, va: VertexSet, vb: VertexSet, s: VertexSet, r: VertexSet
) -> EncodedVector:
    """2n-entry query for the own-side-majority problem.

    Vertices already placed by (S, R) carry their committed excess degree in
    the group that applies to them and a +n sentinel in the other; undecided
    vertices carry both excess degrees.
    """
    _check_half_bipartition(va, s, r)
    n = g.n
    q = [0] * (2 * n)
    for i in range(n):
        ns = neighbor_count(g, i, s)
        nr = neighbor_count(g, i, r)
        if i in s:
            q[i], q[n + i] = ns - nr, n
        elif i in r:
            q[i], q[n + i] = n, nr - ns
        else:
            q[i], q[n + i] = ns - nr, nr - ns
    return EncodedVector(np.array(q, dtype=np.int16), (s, r), "query")


def encode_internal_data(
    g: Graph, va: VertexSet, vb: VertexSet, s2: VertexSet, r2: VertexSet
) -> EncodedVector:
    """2n-entry data vector, the mirror of `encode_internal_query` with -n sentinels."""
    _check_half_bipartition(vb, s2, r2)
    n = g.n
    p = [0] * (2 * n)
    for i in range(n):
        ns = neighbor_count(g, i, s2)
        nr = neighbor_count(g, i, r2)
        if i in s2:
            p[i], p[n + i] = nr - ns, -n
        elif i in r2:
            p[i], p[n + i] = -n, ns - nr
        else:
            p[i], p[n + i] = nr - ns, ns - nr
    return EncodedVector(np.array(p, dtype=np.int16), (s2, r2), "data")


def encode_icc_query(
    g: Graph, va: VertexSet, vb: VertexSet, s: VertexSet, r: VertexSet
) -> EncodedVector:
    """8n-entry query for interval-constrained cuts.

    Groups 1-4 verify the two left-side intervals, groups 5-8 the two
    right-side intervals; the four groups that cannot apply to an
    already-placed vertex hold the +2n sentinel.
    """
    _check_half_bipartition(va, s, r)
    n = g.n
    big = 2 * n
    q = [0] * (8 * n)
    for i in range(n):
        ns = neighbor_count(g, i, s)
        nr = neighbor_count(g, i, r)
        if i in s:
            row = (ns, -ns, nr, -nr, big, big, big, big)
        elif i in r:
            row = (big, big, big, big, nr, -nr, ns, -ns)
        else:
            row = (ns, -ns, nr, -nr, nr, -nr, ns, -ns)
        for k in range(8):
            q[k * n + i] = row[k]
    return EncodedVector(np.array(q, dtype=np.int16), (s, r), "query")


def encode_icc_data(
    g: Graph, va: VertexSet, vb: VertexSet, s2: VertexSet, r2: VertexSet
) -> EncodedVector:
    """8n-entry data vector, the mirror of `encode_icc_query` with -2n sentinels."""
    _check_half_bipartition(vb, s2, r2)
    n = g.n
    big = 2 * n
    p = [0] * (8 * n)
    for i in range(n):
        ns = neighbor_count(g, i, s2)
        nr = neighbor_count(g, i, r2)
        if i in s2:
            row = (-ns, ns, -nr, nr, -big, -big, -big, -big)
        elif i in r2:
            row = (-big, -big, -big, -big, -nr, nr, -ns, ns)
        else:
            row = (-ns, ns, -nr, nr, -nr, nr, -ns, ns)
        for k in range(8):
            p[k * n + i] = row[k]
    return EncodedVector(np.array(p, dtype=np.int16), (s2, r2), "data")


def make_offset(constraints: tuple[VertexConstraints, ...], n: int) -> OffsetVector:
    """Per-vertex pattern (a_lo, -a_hi, b_lo, -b_hi, c_lo, -c_hi, d_lo, -d_hi)."""
    if len(constraints) != n:
        raise ValueError(f"expected {n} vertex constraints, got {len(constraints)}")
    r = np.empty(8 * n, dtype=np.int16)
    for i, c in enumerate(constraints):
        row = (
            c.left_own.lo,
            -c.left_own.hi,
            c.left_cross.lo,
            -c.left_cross.hi,
            c.right_own.lo,
            -c.right_own.hi,
            c.right_cross.lo,
            -c.right_cross.hi,
        )
        for k in range(8):
            r[k * n + i] = row[k]
    return OffsetVector(r)


# ---------------------------------------------------------------------------
# Batch builders
# ---------------------------------------------------------------------------


class _SideEnumeration:
    """Neighbor counts and memberships for a batch of subsets of one half.

    For subset masks m (bit j = j-th smallest vertex of `side`):
      ns[m, v] = |N(v) ∩ S_m|,  nr[m, v] = |N(v) ∩ (side \\ S_m)|,
      in_s / in_r flag vertices of `side` by their placement under m.
    """

    def __init__(self, g: Graph, side: VertexSet, masks: np.ndarray):
        n = g.n
        verts = sorted(side)
        local = np.zeros(n, dtype=np.uint64)
        pos = np.zeros(n, dtype=np.uint64)
        is_side = np.zeros(n, dtype=bool)
        for j, u in enumerate(verts):
            pos[u] = j
            is_side[u] = True
            rest = g.adj[u]
            while rest:
                low = rest & -rest
                local[low.bit_length() - 1] |= 1 << j
                rest ^= low
        deg_side = np.array(
            [(g.adj[v] & side.mask).bit_count() for v in range(n)], dtype=np.int16
        )
        self.masks = masks
        self.ns = np.empty((len(masks), n), dtype=np.int16)
        member = np.empty((len(masks), n), dtype=bool)
        # chunked so the uint64 broadcast workspace stays small at 2^20 masks
        step = max(1, (1 << 22) // max(n, 1))
        for lo in range(0, len(masks), step):
            block = masks[lo : lo + step, None]
            self.ns[lo : lo + step] = np.bitwise_count(block & local[None, :])
            member[lo : lo + step] = (block >> pos[None, :]) & np.uint64(1)
        self.nr = deg_side[None, :] - self.ns
        self.in_s = member & is_side[None, :]
        self.in_r = ~member & is_side[None, :]

    def select(self, keep: np.ndarray) -> "_SideEnumeration":
        out = object.__new__(_SideEnumeration)
        out.masks = self.masks[keep]
        out.ns = self.ns[keep]
        out.nr = self.nr[keep]
        out.in_s = self.in_s[keep]
        out.in_r = self.in_r[keep]
        return out


def _internal_matrix(n: int, enum: _SideEnumeration, role: str) -> np.ndarray:
    diff = enum.ns - enum.nr
    big = np.int16(n)
    if role == "query":
        g1 = np.where(enum.in_r, big, diff)
        g2 = np.where(enum.in_s, big, -diff)
    else:
        g1 = np.where(enum.in_r, -big, -diff)
        g2 = np.where(enum.in_s, -big, diff)
    return np.concatenate([g1, g2], axis=1)


def _icc_matrix(n: int, enum: _SideEnumeration, role: str) -> np.ndarray:
    big = np.int16(2 * n)
    ns, nr = enum.ns, enum.nr
    if role == "query":
        blocks = [
            np.where(enum.in_r, big, ns),
            np.where(enum.in_r, big, -ns),
            np.where(enum.in_r, big, nr),
            np.where(enum.in_r, big, -nr),
            np.where(enum.in_s, big, nr),
            np.where(enum.in_s, big, -nr),
            np.where(enum.in_s, big, ns),
            np.where(enum.in_s, big, -ns),
        ]
    else:
        blocks = [
            np.where(enum.in_r, -big, -ns),
            np.where(enum.in_r, -big, ns),
            np.where(enum.in_r, -big, -nr),
            np.where(enum.in_r, -big, nr),
            np.where(enum.in_s, -big, -nr),
            np.where(enum.in_s, -big, nr),
            np.where(enum.in_s, -big, -ns),
            np.where(enum.in_s, -big, ns),
        ]
    return np.concatenate(blocks, axis=1)


def _upper_bound_keep(
    enum: _SideEnumeration, ub: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Drop subsets whose committed counts already exceed an upper bound.

    Committed own/cross counts only grow when the other half is added, so a
    violated upper bound can never be repaired; removing these rows cannot
    change any dominance match.
    """
    a_hi, b_hi, c_hi, d_hi = ub
    bad_s = (enum.ns > a_hi[None, :]) | (enum.nr > b_hi[None, :])
    bad_r = (enum.nr > c_hi[None, :]) | (enum.ns > d_hi[None, :])
    violated = (enum.in_s & bad_s) | (enum.in_r & bad_r)
    return ~violated.any(axis=1)


@dataclass
class JoinInputs:
    """Join matrices over all subsets of each half: one query row per (S, R)
    of V_A and one data row per (S', R') of V_B (offset already folded in),
    with originating submasks in ascending order.

    `improper` lists the (query row, data row) of each globally improper
    pair, (∅, ∅) and (V_A, V_B), that survived pruning and whose rows match
    under dominance; a join over these rows counts exactly these pairs
    besides the feasible proper cuts.
    """

    query: np.ndarray
    query_masks: np.ndarray
    data: np.ndarray
    data_masks: np.ndarray
    dim: int
    improper: list[tuple[int, int]]


def _matched_improper(
    query: np.ndarray,
    qmasks: np.ndarray,
    ka: int,
    data: np.ndarray,
    dmasks: np.ndarray,
    kb: int,
) -> list[tuple[int, int]]:
    out = []
    for qm, dm in ((0, 0), ((1 << ka) - 1, (1 << kb) - 1)):
        qi = np.flatnonzero(qmasks == qm)
        di = np.flatnonzero(dmasks == dm)
        if qi.size and di.size and np.all(data[di[0]] <= query[qi[0]]):
            out.append((int(qi[0]), int(di[0])))
    return out


def build_join_inputs(
    g: Graph,
    problem: Problem,
    *,
    prune: bool = True,
    internal_route: str = "direct",
) -> JoinInputs:
    """Assemble the dominance-join inputs over all subsets of both halves.

    Uses the 2n layout for the own-side-majority problem (unless routed
    through its interval form) and the 8n layout otherwise.  With `prune`,
    rows whose committed counts already violate an upper bound are dropped;
    this never changes match counts.  Sizes are not encoded: a row's side
    size is the popcount of its mask.
    """
    n = g.n
    va, vb = split_halves(g)
    qmasks = np.arange(1 << len(va), dtype=np.uint64)
    dmasks = np.arange(1 << len(vb), dtype=np.uint64)
    direct = isinstance(problem, InternalPartition) and internal_route == "direct"
    if internal_route not in ("direct", "icc"):
        raise ValueError(f"unknown internal route {internal_route!r}")

    qenum = _SideEnumeration(g, va, qmasks)
    denum = _SideEnumeration(g, vb, dmasks)
    if direct:
        query = _internal_matrix(n, qenum, "query")
        data = _internal_matrix(n, denum, "data")
    else:
        cons = interval_constraints(g, problem)
        if prune:
            ub = tuple(
                np.array(
                    [getattr(c, name).hi for c in cons], dtype=np.int16
                )
                for name in ("left_own", "left_cross", "right_own", "right_cross")
            )
            qenum = qenum.select(_upper_bound_keep(qenum, ub))
            denum = denum.select(_upper_bound_keep(denum, ub))
        query = _icc_matrix(n, qenum, "query")
        data = _icc_matrix(n, denum, "data") + make_offset(cons, n).entries[None, :]

    improper = _matched_improper(
        query, qenum.masks, len(va), data, denum.masks, len(vb)
    )
    return JoinInputs(query, qenum.masks, data, denum.masks, query.shape[1], improper)

