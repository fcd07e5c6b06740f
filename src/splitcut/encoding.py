"""Vector encodings of half-bipartitions.

A bipartition (S, R) of the first half yields a query vector and a
bipartition (S', R') of the second half yields a data vector, arranged so
that componentwise dominance (query >= data) holds exactly when the combined
cut (S ∪ S', rest) is feasible.  Every problem goes through its interval
form (`interval_constraints`) and one layout of 8 entries per vertex, one
per interval bound, where the bounds enter through a constant offset vector
added to every data vector.

Entries are laid out group-major: column (k-1)*n + i holds the k-th entry of
vertex i.  Single-pair encoders are the reference implementation for proper
half-bipartitions.  The batch builders encode only the columns whose bound
can fail, a lower bound above 0 or an upper bound below deg(v) (see
`column_plan`), and produce whole matrices with numpy; they are tested
against the single-pair encoders restricted to those columns.

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
from .problems import Problem, VertexConstraints, interval_constraints

__all__ = [
    "ColumnPlan",
    "EncodedVector",
    "JoinInputs",
    "OffsetVector",
    "build_join_inputs",
    "column_plan",
    "encode_icc_data",
    "encode_icc_query",
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
    rows = [
        (
            c.left_own.lo,
            -c.left_own.hi,
            c.left_cross.lo,
            -c.left_cross.hi,
            c.right_own.lo,
            -c.right_own.hi,
            c.right_cross.lo,
            -c.right_cross.hi,
        )
        for c in constraints
    ]
    return OffsetVector(np.array(rows, dtype=np.int16).reshape(n, 8).T.ravel())


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
# vertex, as `_breaks_upper_bound` takes them.
_UpperBounds = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _breaks_upper_bound(
    ns: np.ndarray, nr: np.ndarray, in_s: np.ndarray, in_r: np.ndarray, ub: _UpperBounds
) -> np.ndarray:
    """Where a placed vertex breaks an upper bound: a vertex in S when its
    own count ns exceeds a_hi or its cross count nr exceeds b_hi, a vertex
    in R when its own count nr exceeds c_hi or its cross count ns exceeds
    d_hi.  A vertex in neither side breaks nothing."""
    a_hi, b_hi, c_hi, d_hi = ub
    return (in_s & ((ns > a_hi) | (nr > b_hi))) | (in_r & ((nr > c_hi) | (ns > d_hi)))


@dataclass(frozen=True, eq=False)
class ColumnPlan:
    """Which columns of the 8n layout can fail for one instance.

    `bounds` is `make_offset`'s vector as an (8, n) table, row k holding the
    k-th entry of every vertex.  Column (k, v) binds when its bound can
    fail: a lower bound (even k) above 0, or an upper bound (odd k, stored
    negated) below deg(v).  Every other column holds for every pair, since
    counts lie in [0, deg(v)], so only binding columns are encoded.
    """

    bounds: np.ndarray
    binds: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.binds.sum())

    @property
    def offset(self) -> np.ndarray:
        """The offset entries of the binding columns, in layout order."""
        return self.bounds[self.binds]

    def upper_bounds(self) -> _UpperBounds | None:
        """The four upper bounds per vertex, or None when none binds."""
        if not self.binds[1::2].any():
            return None
        return tuple(-self.bounds[1::2])


def column_plan(g: Graph, problem: Problem) -> ColumnPlan:
    """The binding columns of the problem's interval form on g."""
    n = g.n
    bounds = make_offset(interval_constraints(g, problem), n).entries.reshape(8, n)
    deg = np.array([a.bit_count() for a in g.adj], dtype=np.int16)
    binds = np.empty((8, n), dtype=bool)
    binds[0::2] = bounds[0::2] > 0
    binds[1::2] = bounds[1::2] > -deg
    return ColumnPlan(bounds, binds)


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
            local_ub = [bound[idx] for bound in ub]
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
                in_s = in_s.astype(bool)
                bad = _breaks_upper_bound(
                    ns, nr, in_s, ~in_s, tuple(bound[cols] for bound in local_ub)
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


def _icc_matrix(n: int, enum: _SideEnumeration, role: str, binds: np.ndarray) -> np.ndarray:
    """The columns of the 8n layout flagged in `binds`, in layout order.

    A query column holds +count for a lower bound and -count for an upper
    one, a data column the opposite sign; a vertex placed on the side the
    group does not check holds the +2n (query) or -2n (data) sentinel.
    """
    big = np.int16(2 * n if role == "query" else -2 * n)
    # groups without a binding column cost nothing, and with none at all
    # the matrix has zero columns
    blocks = [np.empty((len(enum.masks), 0), dtype=np.int16)]
    for k in np.flatnonzero(binds.any(axis=1)):
        cols = np.flatnonzero(binds[k])
        count = (enum.nr if 2 <= k < 6 else enum.ns)[:, cols]
        if k % 2 == (role == "query"):
            count = -count
        placed = (enum.in_r if k < 4 else enum.in_s)[:, cols]
        blocks.append(np.where(placed, big, count))
    return np.concatenate(blocks, axis=1)


def _upper_bound_keep(enum: _SideEnumeration, ub: _UpperBounds) -> np.ndarray:
    """Drop subsets whose committed counts already exceed an upper bound.

    Committed own/cross counts only grow when the other half is added, so a
    violated upper bound can never be repaired; removing these rows cannot
    change any dominance match.
    """
    violated = _breaks_upper_bound(enum.ns, enum.nr, enum.in_s, enum.in_r, ub)
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


def build_join_inputs(g: Graph, problem: Problem | ColumnPlan) -> JoinInputs:
    """Assemble the dominance-join inputs over the subsets of both halves.

    Only the columns of `column_plan` are encoded; a caller that has built
    the plan already passes it in place of the problem.  Subsets whose
    committed counts already violate an upper bound are not generated
    (beyond the last batch, see `_SideEnumeration.within_bounds`); this
    never changes match counts.  When no upper bound binds, every subset is
    encoded.  Sizes are not encoded: a row's side size is the popcount of
    its mask.
    """
    n = g.n
    va, vb = split_halves(g)
    plan = problem if isinstance(problem, ColumnPlan) else column_plan(g, problem)
    ub = plan.upper_bounds()
    qenum = _SideEnumeration.within_bounds(g, va, ub)
    denum = _SideEnumeration.within_bounds(g, vb, ub)
    query = _icc_matrix(n, qenum, "query", plan.binds)
    data = _icc_matrix(n, denum, "data", plan.binds) + plan.offset[None, :]
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
