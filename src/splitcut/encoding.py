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

The batch builders encode every subset of each half that breaks no cap,
the empty set and the whole half included, so one join over the two lists
sees every left-side mask that can still be feasible exactly once.  A
count's cap is its upper bound, or deg(v) minus the lower bound of the
other count of the same side when that is smaller, since the two add up to
deg(v) (`ColumnPlan.upper_bounds`); so lower bounds prune as well, while
the encoded columns stay those of the bounds themselves.
One enumerator builds each half: it places the half's vertices one at a
time, doubling the rows at each placement, and checks the bounds of the
vertices whose counts changed in batches, once the rows pass a few
hundred and after the last placement.  A check drops the rows in which a
placed vertex breaks a bound, so no later completion of them is built.  Only
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


@dataclass(frozen=True, eq=False)
class ColumnPlan:
    """Which columns of the 8n layout can fail for one instance.

    `bounds` is `make_offset`'s vector as an (8, n) table, row k holding the
    k-th entry of every vertex, and `deg` holds the degrees.  Column (k, v)
    binds when its bound can fail: a lower bound (even k) above 0, or an
    upper bound (odd k, stored negated) below deg(v).  Every other column
    holds for every pair, since counts lie in [0, deg(v)], so only binding
    columns are encoded.
    """

    bounds: np.ndarray
    binds: np.ndarray
    deg: np.ndarray

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

    def upper_bounds(self) -> np.ndarray | None:
        """The caps on the four counts per vertex (left own, left cross,
        right own, right cross) as rows of a (4, n) table, or None when no
        cap is below deg(v).

        A count's cap is the smaller of its upper bound and deg(v) minus the
        lower bound of the complementary count of the same side, since own
        and cross counts add up to deg(v).  So a lower bound prunes too:
        internal partition caps each cross count at floor(deg(v) / 2).  A
        cap is negative when that lower bound exceeds deg(v), and then no
        row keeps the vertex on that side."""
        # negated: the larger of -hi and the complementary lo less deg(v)
        caps = np.maximum(self.bounds[1::2], self.bounds[[2, 0, 6, 4]] - self.deg)
        if (caps <= -self.deg).all():
            return None
        return -caps

    def permuted(self, order: np.ndarray) -> "ColumnPlan":
        """The plan of the graph whose vertex i is vertex order[i] here."""
        return ColumnPlan(self.bounds[:, order], self.binds[:, order], self.deg[order])


def column_plan(g: Graph, problem: Problem) -> ColumnPlan:
    """The binding columns of the problem's interval form on g."""
    n = g.n
    bounds = make_offset(interval_constraints(g, problem), n).entries.reshape(8, n)
    deg = np.array([a.bit_count() for a in g.adj], dtype=np.int16)
    binds = np.empty((8, n), dtype=bool)
    binds[0::2] = bounds[0::2] > 0
    binds[1::2] = bounds[1::2] > -deg
    return ColumnPlan(bounds, binds, deg)


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


# Rows a half may hold before its pending bound checks run.  A check costs
# about the same on a few rows as on a few hundred, so it waits until the
# rows pass this count or the half's last vertex is placed.
_CHECK_ROWS = 256

# _BITS[j] has bit j set
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _within_bounds(
    masks: np.ndarray, probe: np.ndarray, rule: np.ndarray, placed: list[int]
) -> np.ndarray:
    """The masks in which every checked vertex keeps the interval rule.

    Checked vertex i has placed[i] placed neighbours.  probe[:, i] holds
    its neighbours and its own bit, so their popcounts against a mask are
    x and its side; rule[0, :, i] holds its limits on x and on p - x in R,
    each one above a cap, and rule[1, :, i] what they rise by in S."""
    x, in_s = np.bitwise_count(probe & masks)
    lim_x, lim_rest = rule[0] + in_s * rule[1]
    rest = np.array(placed, dtype=np.uint8)[:, None] - x
    return masks[((x < lim_x) & (rest < lim_rest)).all(axis=0)]


def _enumerate_half(
    g: Graph, side: VertexSet, ub: np.ndarray | None, last_in_r: bool = False
) -> _HalfRows:
    """The subsets of `side`, a run of consecutive vertices, that break no
    cap in `ub` (the (4, n) table of `ColumnPlan.upper_bounds`; every
    subset when `ub` is None), in ascending mask order; with `last_in_r`,
    only those without the half's last vertex.

    The half's vertices are placed one at a time, lowest mask bit first.
    Each placement doubles the masks, the new vertex in R and then in S,
    which keeps ascending order.  One interval rule prunes: with p placed
    neighbours, x of them in S (a popcount of the mask against the
    vertex's neighbours), a vertex in S keeps its row when
    p - b_hi <= x <= a_hi and a vertex in R when p - c_hi <= x <= d_hi,
    with the caps of `ub` as a_hi, b_hi, c_hi and d_hi.

    A placement changes the counts of the new vertex and its placed
    neighbours only, so it marks them pending.  The pending vertices are
    checked once the rows pass `_CHECK_ROWS`, and after the last
    placement; only those with more placed neighbours than their smallest
    cap, since no count can break a cap otherwise.  Counts only
    grow as vertices are placed, so a row that broke a bound before a
    check still breaks it at the check, and the kept rows do not depend on
    when checks run.  On the `sweep-sparse` halves of 13 and 14 vertices
    (median of 16 interleaved rounds), a threshold of 128 to 512 rows
    enumerated 1.5-1.7 times as fast as a check at every placement, 64
    rows 1.3 times and 1024 rows 1.45 times; one check after the last
    placement took 1.3 times as long.  On halves of 9 and 10 vertices no
    threshold moved the time by more than 3%.

    With `last_in_r`, the last placement puts its vertex in R only and
    adds no rows.  `generated` is the sum of the level sizes, the single
    empty row before the first placement included, so it counts the
    larger levels built between checks.  `ns` and `nr` are computed once,
    for the kept rows, by popcount against each vertex's neighbours in
    the half.
    """
    k = len(side)
    low = next(iter(side), 0)
    if side.mask != ((1 << k) - 1) << low:
        raise ValueError("a half must be a run of consecutive vertices")
    # nbr[v]: the neighbours of v in the half, as a mask over its bits
    nbr = np.array([(a >> low) & ((1 << k) - 1) for a in g.adj], dtype=np.uint64)
    if ub is not None:
        own = slice(low, low + k)
        half_nbr = nbr[own].tolist()  # of the half's own vertices
        cap = ub[:, own].min(axis=0).tolist()
        # per mask bit, the masks whose popcounts give x and the side (1 in
        # S), and the limits of the rule, one above the caps and at least 0,
        # so a negative cap fails every count: d_hi on x and c_hi on p - x
        # in R, plus what S adds to them, in uint8 where a negative rise
        # wraps
        probe = np.empty((2, k), dtype=np.uint64)
        probe[0], probe[1] = nbr[own], _BITS[:k]
        rule = np.maximum(ub[[3, 2, 0, 1], own] + 1, 0).astype(np.uint8).reshape(2, 2, k)
        rule[1] -= rule[0]
    masks = np.zeros(1, dtype=np.uint64)
    generated = 1
    pending = 0  # bits of the vertices whose counts changed since the last check
    for j in range(k):
        if not (last_in_r and j == k - 1):
            masks = np.concatenate([masks, masks | np.uint64(1 << j)])
        generated += len(masks)
        if ub is None:
            continue
        pending |= half_nbr[j] & ((1 << j) - 1) | 1 << j
        if len(masks) <= _CHECK_ROWS and j < k - 1:
            continue
        done = (2 << j) - 1
        cols, placed = [], []
        for i in range(j + 1):
            if pending >> i & 1:
                p = (half_nbr[i] & done).bit_count()
                if p > cap[i]:
                    cols.append(i)
                    placed.append(p)
        pending = 0
        if cols:
            masks = _within_bounds(
                masks, probe[:, cols, None], rule[:, :, cols, None], placed
            )
    ns = np.bitwise_count(masks[:, None] & nbr).astype(np.int16)
    deg = np.bitwise_count(nbr).astype(np.int16)
    return _HalfRows(side, masks, ns, deg - ns, generated)


def _icc_blocks(n: int, half: _HalfRows, role: str, binds: np.ndarray) -> list[np.ndarray]:
    """The columns of the 8n layout flagged in `binds`, in layout order, as
    one block per group after an empty first block.

    A query column holds +count for a lower bound and -count for an upper
    one, a data column the opposite sign; a vertex placed on the side the
    group does not check holds the +2n (query) or -2n (data) sentinel.
    """
    big = np.int16(2 * n if role == "query" else -2 * n)
    size = len(half.side)
    # bit[v]: the mask bit of v, -1 for a vertex of the other half
    bit = np.full(n, -1, dtype=np.intp)
    bit[list(half.side)] = np.arange(size)
    shifts = np.arange(size, dtype=np.uint64)
    in_s = ((half.masks[:, None] >> shifts) & np.uint64(1)).astype(bool)
    # groups without a binding column cost nothing, and with none at all
    # the blocks hold zero columns
    blocks = [np.empty((len(half.masks), 0), dtype=np.int16)]
    for k in np.flatnonzero(binds.any(axis=1)):
        cols = np.flatnonzero(binds[k])
        block = (half.nr if 2 <= k < 6 else half.ns)[:, cols]
        if k % 2 == (role == "query"):
            block = -block
        # only the half's own vertices are placed; groups 1-4 check S
        mine = np.flatnonzero(bit[cols] >= 0)
        sentinel = in_s[:, bit[cols[mine]]] ^ (k < 4)
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
    keeps a subset whose committed counts already break a cap; this never
    changes match counts.  When no cap is below a degree, every subset is
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
