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
lists sees every left-side mask that can still be feasible exactly once.
One enumerator builds each half: it places the half's vertices one at a
time, doubling the rows at each placement, and drops a row as soon as a
placed vertex breaks a bound, so no completion of it is ever built.  Only
two pairs, (∅, ∅) and (V_A, V_B), give an improper cut; two properness
columns appended to both matrices fail exactly these pairs, so a join
counts proper cuts only.

A problem whose interval form is unchanged when L and R swap
(`ColumnPlan.symmetric`) has its feasible cuts in reversed pairs.  A
mirrored build places the last vertex of V_B in R' only, so its data side
holds one cut of each pair and half the rows; the whole-V_B row is gone
with it.
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
    def symmetric(self) -> bool:
        """Whether swapping L and R leaves every interval unchanged: the
        left-side bounds (rows 0-3) equal the right-side ones (rows 4-7)."""
        return bool(np.array_equal(self.bounds[:4], self.bounds[4:]))

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


def _bits(masks: np.ndarray, bits: list[int]) -> np.ndarray:
    """rows x len(bits) flags: bit bits[i] of each mask."""
    shifts = np.asarray(bits, dtype=np.uint64)
    return ((masks[:, None] >> shifts) & np.uint64(1)).astype(bool)


@dataclass(frozen=True, eq=False)
class _HalfRows:
    """Subsets of one half and their neighbour counts.

    Row i is the subset S of `side` whose bit j in masks[i] marks the j-th
    smallest vertex of `side`, with R = side \\ S:
      ns[i, v] = |N(v) ∩ S|,  nr[i, v] = |N(v) ∩ R|.
    `generated` counts the rows built on the way, dropped ones included.
    """

    side: VertexSet
    masks: np.ndarray
    ns: np.ndarray
    nr: np.ndarray
    generated: int


def _enumerate_half(
    g: Graph, side: VertexSet, ub: _UpperBounds | None, last_in_r: bool = False
) -> _HalfRows:
    """The subsets of `side` that break no upper bound in `ub` (every
    subset when `ub` is None), in ascending mask order; with `last_in_r`,
    only those without the half's last vertex.

    The half's vertices are placed one at a time, lowest mask bit first.
    Each placement doubles the rows, the new vertex in R and then in S,
    which keeps ascending order, and drops the rows where the new vertex
    or one of its placed neighbours breaks a bound.  Only their counts
    changed, and counts only grow as vertices are placed, so no completion
    of a dropped row could be kept.  The check is skipped when none of
    these vertices has more placed neighbours than its smallest upper
    bound, since no count can exceed it then.  With `last_in_r`, the last
    placement puts its vertex in R only and adds no rows.  `generated` is
    the sum of the level sizes, the single empty row before the first
    placement included.
    """
    n = g.n
    verts = sorted(side)
    cap = None if ub is None else np.minimum.reduce(ub).tolist()
    adj = _bits(np.array(g.adj, dtype=np.uint64)[verts], list(range(n))).astype(np.int16)
    masks = np.zeros(1, dtype=np.uint64)
    ns = np.zeros((1, n), dtype=np.int16)
    generated = 1
    for j, u in enumerate(verts):
        if not (last_in_r and j == len(verts) - 1):
            masks = np.concatenate([masks, masks | np.uint64(1 << j)])
            ns = np.concatenate([ns, ns + adj[j]])
        generated += len(masks)
        if cap is None:
            continue
        # the mask bits and vertices of u and its placed neighbours, and how
        # many placed neighbours each of them has
        local = [i for i in range(j) if g.adj[u] >> verts[i] & 1] + [j]
        cols = [verts[i] for i in local]
        done = side.mask & ((2 << u) - 1)
        placed = [(g.adj[v] & done).bit_count() for v in cols]
        if any(p > cap[v] for p, v in zip(placed, cols)):
            in_s = _bits(masks, local)
            s = ns[:, cols]
            nr = np.array(placed, dtype=np.int16) - s
            bad = _breaks_upper_bound(s, nr, in_s, ~in_s, tuple(b[cols] for b in ub))
            keep = ~bad.any(axis=1)
            masks, ns = masks[keep], ns[keep]
    deg = adj.sum(axis=0, dtype=np.int16)
    return _HalfRows(side, masks, ns, deg - ns, generated)


def _icc_blocks(n: int, half: _HalfRows, role: str, binds: np.ndarray) -> list[np.ndarray]:
    """The columns of the 8n layout flagged in `binds`, in layout order, as
    one block per group after an empty first block.

    A query column holds +count for a lower bound and -count for an upper
    one, a data column the opposite sign; a vertex placed on the side the
    group does not check holds the +2n (query) or -2n (data) sentinel.
    """
    big = np.int16(2 * n if role == "query" else -2 * n)
    bit = {v: j for j, v in enumerate(half.side)}
    in_s = _bits(half.masks, list(bit.values()))
    # groups without a binding column cost nothing, and with none at all
    # the blocks hold zero columns
    blocks = [np.empty((len(half.masks), 0), dtype=np.int16)]
    for k in np.flatnonzero(binds.any(axis=1)):
        cols = np.flatnonzero(binds[k])
        block = (half.nr if 2 <= k < 6 else half.ns)[:, cols]
        if k % 2 == (role == "query"):
            block = -block
        # only the half's own vertices are placed; groups 1-4 check S
        mine = [i for i, v in enumerate(cols) if v in bit]
        sentinel = in_s[:, [bit[cols[i]] for i in mine]] ^ (k < 4)
        block[:, mine] = np.where(sentinel, big, block[:, mine])
        blocks.append(block)
    return blocks


@dataclass
class JoinInputs:
    """Join matrices over the subsets of each half that pruning keeps: one
    query row per (S, R) of V_A and one data row per (S', R') of V_B (offset
    already folded in), with originating submasks in ascending order.

    The binding columns are followed by the two properness columns, so a
    data row matches a query row exactly when the pair is a feasible proper
    cut; `dim` counts both.  `generated` counts the rows the enumeration of
    both halves built at every level, the rows dropped on the way included.
    A `mirrored` join keeps only the data rows with the last vertex of V_B
    in R', one cut of each reversed pair of a symmetric problem.
    """

    query: np.ndarray
    query_masks: np.ndarray
    data: np.ndarray
    data_masks: np.ndarray
    dim: int
    generated: int
    mirrored: bool


def _properness(half: _HalfRows, role: str) -> np.ndarray:
    """Two 0/1 columns that fail only the improper pairs.  A query row holds
    0 where its subset is ∅ (first column) or the whole half (second) and 1
    elsewhere; a data row holds 1 there and 0 elsewhere.  So a pair fails
    exactly when both of its rows are empty or both are whole halves."""
    whole = np.uint64((1 << len(half.side)) - 1)
    ends = np.stack([half.masks == 0, half.masks == whole], axis=1)
    return (ends if role == "data" else ~ends).astype(np.int16)


def _join_matrix(n: int, half: _HalfRows, role: str, plan: ColumnPlan) -> np.ndarray:
    """One half's join matrix: the binding columns of `plan`, then the two
    properness columns, copied once from their blocks (writing each block
    straight into the matrix is slower, since its columns are strided);
    data rows get the offset in place."""
    blocks = _icc_blocks(n, half, role, plan.binds)
    matrix = np.concatenate([*blocks, _properness(half, role)], axis=1)
    if role == "data":
        # the properness columns take no offset
        matrix += np.concatenate([plan.offset, np.zeros(2, dtype=np.int16)])
    return matrix


def build_join_inputs(
    g: Graph, problem: Problem | ColumnPlan, mirror: bool = False
) -> JoinInputs:
    """Assemble the dominance-join inputs over the subsets of both halves.

    Only the columns of `column_plan` are encoded, then the two properness
    columns; a caller that has built the plan already passes it in place of
    the problem.  Each half is enumerated by `_enumerate_half`, which never
    keeps a subset whose committed counts already break an upper bound; this
    never changes match counts.  When no upper bound binds, every subset is
    encoded.  Sizes are not encoded: a row's side size is the popcount of
    its mask.  With `mirror`, which only a symmetric plan allows, the data
    side keeps only the subsets without the last vertex of V_B.
    """
    n = g.n
    plan = problem if isinstance(problem, ColumnPlan) else column_plan(g, problem)
    if mirror and not plan.symmetric:
        raise ValueError("only a symmetric problem can be mirrored")
    ub = plan.upper_bounds()
    va, vb = split_halves(g)
    q = _enumerate_half(g, va, ub)
    d = _enumerate_half(g, vb, ub, last_in_r=mirror)
    query = _join_matrix(n, q, "query", plan)
    data = _join_matrix(n, d, "data", plan)
    return JoinInputs(
        query, q.masks, data, d.masks, plan.dim + 2, q.generated + d.generated, mirror
    )
