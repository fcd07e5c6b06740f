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

The batch builders encode every subset of each half that breaks no upper
bound, the empty set and the whole half included, so one join over the two
lists sees every left-side mask that can still be feasible exactly once.  A
subset that breaks an upper bound is never generated, except within a last
batch of at most `_ROW_BUDGET` candidates per half: the half's vertices are
placed one at a time and a partial subset is dropped as soon as a placed
vertex breaks a bound.  Only two pairs, (∅, ∅) and (V_A, V_B), give an
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


# Largest number of rows a half builds at once by enumerating all of its
# remaining low bits; a half with more candidate rows places its vertices one
# at a time until its surviving prefixes fit.  Encoding the 42 graphs of the
# benchmark's sparse pool (n=27, seed 1, 2-CPU x86 machine) took 2.1 ms per
# graph at this budget, 2.2 ms at 2^8, 2.3 ms at 2^11, 2.8 ms at 2^12 and
# 6.9 ms with no levels.  A smaller budget would also place levels in halves
# of 10 vertices, which prune little.
_ROW_BUDGET = 1 << 10

# The four upper bounds (left own, left cross, right own, right cross) per
# vertex, as `_upper_bound_keep` takes them.
_UpperBounds = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _SideEnumeration:
    """Neighbor counts and memberships for a batch of subsets of one half.

    For subset masks m (bit j = j-th smallest vertex of `side`):
      ns[m, v] = |N(v) ∩ S_m|,  nr[m, v] = |N(v) ∩ (side \\ S_m)|,
      in_s / in_r flag vertices of `side` by their placement under m.
    `generated` counts the rows built, partial ones included.
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
        self.generated = len(masks)
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

    @classmethod
    def within_bounds(
        cls, g: Graph, side: VertexSet, ub: _UpperBounds | None
    ) -> "_SideEnumeration":
        """The subsets of `side` that break no upper bound in `ub` (every
        subset when `ub` is None), in ascending mask order.

        While the surviving prefixes times the subsets of the bits still
        free exceed `_ROW_BUDGET`, the vertex of the highest free bit is
        placed: each prefix is followed by its two children, with the vertex
        in R and in S, which keeps ascending order, and a child is dropped
        when the new vertex or one of its placed neighbours breaks a bound.  Only their
        counts changed, and counts only grow as vertices are placed, so no
        completion of a dropped child could be kept.  The survivors are then
        joined with every subset of the free bits and `_upper_bound_keep`
        decides the rest.
        """
        verts = sorted(side)
        free = len(verts)
        prefixes = np.zeros(1, dtype=np.uint64)
        placed = 0
        if ub is not None and (1 << free) > _ROW_BUDGET:
            idx = np.asarray(verts, dtype=np.intp)
            a_hi, b_hi, c_hi, d_hi = (bound[idx] for bound in ub)
            # bit i of nbr[j] marks an edge between local vertices i and j
            nbr = [
                sum(1 << i for i, v in enumerate(verts) if g.adj[u] >> v & 1) for u in verts
            ]
            adj = np.array(nbr, dtype=np.uint64)
            done = 0  # the placed bits
            while free and len(prefixes) << free > _ROW_BUDGET:
                free -= 1
                done |= 1 << free
                prefixes = np.repeat(prefixes, 2)
                prefixes[1::2] |= np.uint64(1 << free)
                placed += len(prefixes)
                # only the new vertex and its placed neighbours have new counts
                cols = [free] + [j for j in range(free + 1, len(verts)) if nbr[free] >> j & 1]
                ns = np.bitwise_count(prefixes[:, None] & adj[cols])
                nr = np.bitwise_count(adj[cols] & np.uint64(done)) - ns
                in_s = (prefixes[:, None] >> np.array(cols, dtype=np.uint64)) & np.uint64(1)
                bad = np.where(
                    in_s.astype(bool),
                    (ns > a_hi[cols]) | (nr > b_hi[cols]),
                    (nr > c_hi[cols]) | (ns > d_hi[cols]),
                )
                prefixes = prefixes[~bad.any(axis=1)]
        low = np.arange(1 << free, dtype=np.uint64)
        enum = cls(g, side, (prefixes[:, None] | low[None, :]).ravel())
        if ub is not None:
            enum = enum.select(_upper_bound_keep(enum, ub))
        enum.generated += placed
        return enum

    def select(self, keep: np.ndarray) -> "_SideEnumeration":
        out = object.__new__(_SideEnumeration)
        out.masks = self.masks[keep]
        out.generated = self.generated
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


def _upper_bounds(cons: tuple[VertexConstraints, ...]) -> _UpperBounds:
    return tuple(
        np.array([getattr(c, name).hi for c in cons], dtype=np.int16)
        for name in ("left_own", "left_cross", "right_own", "right_cross")
    )


def _upper_bound_keep(enum: _SideEnumeration, ub: _UpperBounds) -> np.ndarray:
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
    """Join matrices over the subsets of each half that pruning keeps: one
    query row per (S, R) of V_A and one data row per (S', R') of V_B (offset
    already folded in), with originating submasks in ascending order.

    `improper` lists the (query row, data row) of each globally improper
    pair, (∅, ∅) and (V_A, V_B), that survived pruning and whose rows match
    under dominance; a join over these rows counts exactly these pairs
    besides the feasible proper cuts.  `generated` counts the rows the
    enumeration of both halves built, the partial rows dropped on the way
    included.
    """

    query: np.ndarray
    query_masks: np.ndarray
    data: np.ndarray
    data_masks: np.ndarray
    dim: int
    improper: list[tuple[int, int]]
    generated: int


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
    """Assemble the dominance-join inputs over the subsets of both halves.

    Uses the 2n layout for the own-side-majority problem (unless routed
    through its interval form) and the 8n layout otherwise.  With `prune`,
    subsets whose committed counts already violate an upper bound are never
    generated; this never changes match counts.  Without it, and on the 2n
    layout, every subset is encoded.  Sizes are not encoded: a row's side
    size is the popcount of its mask.
    """
    n = g.n
    va, vb = split_halves(g)
    direct = isinstance(problem, InternalPartition) and internal_route == "direct"
    if internal_route not in ("direct", "icc"):
        raise ValueError(f"unknown internal route {internal_route!r}")

    if direct:
        qenum = _SideEnumeration.within_bounds(g, va, None)
        denum = _SideEnumeration.within_bounds(g, vb, None)
        query = _internal_matrix(n, qenum, "query")
        data = _internal_matrix(n, denum, "data")
    else:
        cons = interval_constraints(g, problem)
        ub = _upper_bounds(cons) if prune else None
        qenum = _SideEnumeration.within_bounds(g, va, ub)
        denum = _SideEnumeration.within_bounds(g, vb, ub)
        query = _icc_matrix(n, qenum, "query")
        data = _icc_matrix(n, denum, "data") + make_offset(cons, n).entries[None, :]

    improper = _matched_improper(
        query, qenum.masks, len(va), data, denum.masks, len(vb)
    )
    return JoinInputs(
        query,
        qenum.masks,
        data,
        denum.masks,
        query.shape[1],
        improper,
        qenum.generated + denum.generated,
    )
