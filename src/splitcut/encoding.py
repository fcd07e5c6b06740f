"""Vector encodings of half-bipartitions.

A bipartition (S, R) of the first half yields a query vector and a
bipartition (S', R') of the second half yields a data vector, arranged so
that componentwise dominance (query >= data) holds exactly when the combined
cut (S ∪ S', rest) is feasible.  Every problem goes through its interval
form (`interval_constraints`) and one layout of 8 entries per vertex, one
per interval bound, where the bounds enter through a constant offset vector
added to every data vector.

Entries are laid out group-major: column (k-1)*n + i holds the k-th entry of
vertex i.  The single-pair encoders are the reference implementation for
every half-bipartition, the ∅ and whole-half ones included; a data vector
is the negated query of its half.  The batch builders encode only the
columns whose bound can fail, a lower bound above 0 or an upper bound
below deg(v) (see `column_plan`), and produce whole matrices with numpy;
they are tested against the single-pair encoders restricted to those
columns.

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
placed vertex breaks a bound, so no later completion of them is built.
The levels before the first check hold every subset of their vertices,
so they are built at once, as a range of masks.  Only
two pairs, (∅, ∅) and (V_A, V_B), give an improper cut; two properness
columns appended to both matrices fail exactly these pairs, so a join
counts proper cuts only.

Each half's join matrix is built in one pass over its kept masks: one
popcount table of the masks against every vertex's neighbours in the half
and the half's own bits, from which every column is gathered, scaled and
shifted at once, and the sentinels blended in.  The per-column
constants of both halves are built once per solve (`_Columns`).

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
    "JoinInputs",
    "build_join_inputs",
    "column_plan",
    "encode_icc_data",
    "encode_icc_query",
    "make_offset",
]


def _check_half_bipartition(half: VertexSet, s: VertexSet, r: VertexSet) -> None:
    if s.n != half.n or r.n != half.n:
        raise ValueError("bipartition sides over a different universe")
    if s.mask & r.mask or (s.mask | r.mask) != half.mask:
        raise ValueError("sides do not bipartition the half")


def encode_icc_query(
    g: Graph, va: VertexSet, vb: VertexSet, s: VertexSet, r: VertexSet
) -> np.ndarray:
    """8n-entry int16 query for interval-constrained cuts: vertex v's
    entries are (ns, -ns, nr, -nr, nr, -nr, ns, -ns), ns = |N(v) ∩ S| and
    nr = |N(v) ∩ R|, where groups 1-4 verify the left-side intervals and
    5-8 the right-side ones, so groups 5-8 of v in S and 1-4 of v in R hold
    the +2n sentinel.  Either side may be empty, as in a join's ∅ and
    whole-half rows."""
    _check_half_bipartition(va, s, r)
    n = g.n
    ns = [neighbor_count(g, i, s) for i in range(n)]
    nr = [neighbor_count(g, i, r) for i in range(n)]
    q = np.array([ns, ns, nr, nr, nr, nr, ns, ns], dtype=np.int16)
    q[1::2] *= -1
    q[4:, list(s)] = 2 * n
    q[:4, list(r)] = 2 * n
    return q.ravel()


def encode_icc_data(
    g: Graph, va: VertexSet, vb: VertexSet, s2: VertexSet, r2: VertexSet
) -> np.ndarray:
    """8n-entry int16 data vector: the negated `encode_icc_query` of the
    bipartition (S', R') of V_B, with -2n sentinels."""
    return -encode_icc_query(g, vb, va, s2, r2)


def make_offset(constraints: tuple[VertexConstraints, ...], n: int) -> np.ndarray:
    """The 8n-entry int16 vector of interval bounds added to every data
    vector: per vertex (a_lo, -a_hi, b_lo, -b_hi, c_lo, -c_hi, d_lo, -d_hi),
    entry k*n + v holding the k-th of vertex v."""
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
    return np.array(rows, dtype=np.int16).reshape(n, 8).T.ravel()


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
    bounds = make_offset(interval_constraints(g, problem), n).reshape(8, n)
    deg = np.array([a.bit_count() for a in g.adj], dtype=np.int16)
    binds = np.empty((8, n), dtype=bool)
    binds[0::2] = bounds[0::2] > 0
    binds[1::2] = bounds[1::2] > -deg
    return ColumnPlan(bounds, binds, deg)


@dataclass(frozen=True, eq=False)
class _Rule:
    """The interval rule of the enumeration over all n vertices: `cap[v]` is
    v's smallest cap, `limits[0, :, v]` its limits on x and on p - x in R,
    and `limits[1, :, v]` what they rise by in S (see `_enumerate_half`).

    A limit is one above its cap and at least 0, so a negative cap fails
    every count: d_hi on x and c_hi on p - x in R, a_hi and b_hi in S.  The
    limits are uint8, where a negative rise wraps."""

    cap: list[int]
    limits: np.ndarray

    @classmethod
    def of(cls, ub: np.ndarray | None) -> "_Rule | None":
        """The rule of the caps `ub` (`ColumnPlan.upper_bounds`); None when
        there are none."""
        if ub is None:
            return None
        limits = np.maximum(ub[[3, 2, 0, 1]] + 1, 0).astype(np.uint8).reshape(2, 2, -1)
        limits[1] -= limits[0]
        return cls(ub.min(axis=0).tolist(), limits)


@dataclass(frozen=True, eq=False)
class _HalfRows:
    """The subsets of one half that the enumeration keeps.

    Row i is the subset S of `side` whose bit j in masks[i] marks the j-th
    smallest vertex of `side`, with R = side \\ S.  The masks are uint32,
    since a half holds at most 32 vertices.  `generated` counts the rows
    built on the way, dropped ones included.
    """

    side: VertexSet
    masks: np.ndarray
    generated: int


# Rows a half may hold before its pending bound checks run.  A check costs
# about the same on a few rows as on a few hundred, so it waits until the
# rows pass this count or the half's last vertex is placed.
_CHECK_ROWS = 256

# _BITS[j] has bit j set
_BITS = np.uint32(1) << np.arange(32, dtype=np.uint32)

# per group of the 8n layout, the query's coefficients of |N(v) ∩ S| and of
# deg_h(v) (in the R-count groups 3-6), and 1 where a vertex of the half
# holds the sentinel in S rather than in R
_SIGN = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=np.int16)
_RDEG = np.array([0, 0, 1, -1, 1, -1, 0, 0], dtype=np.int16)
_IN_S = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8)


def _half_neighbours(g: Graph) -> np.ndarray:
    """Each vertex's neighbours in each half, as uint32 masks over the
    half's bits: row 0 for V_A and row 1 for V_B, with a last column 0 for
    a vertex n that has no neighbours.  The neighbour masks pass through
    uint64, so g has at most 64 vertices."""
    n, ka = g.n, g.n // 2
    adj = np.array((*g.adj, 0), dtype=np.uint64)
    low = np.array([[0], [ka]], dtype=np.uint64)
    run = np.array([[(1 << ka) - 1], [(1 << (n - ka)) - 1]], dtype=np.uint64)
    return ((adj >> low) & run).astype(np.uint32)


def _within_bounds(
    masks: np.ndarray, probe: np.ndarray, limits: np.ndarray, placed: np.ndarray
) -> np.ndarray:
    """The masks in which every checked vertex keeps the interval rule.

    Checked vertex i has placed[i] placed neighbours, x of them in S: the
    popcount of a mask against probe[0, i].  Bit probe[1, i] of the mask
    is its side, and limits[:, :, i] its `_Rule.limits`."""
    nbr, shift = probe
    x = np.bitwise_count(nbr & masks)
    in_s = np.bitwise_and(masks >> shift, 1, dtype=np.uint8, casting="unsafe")
    lim_x, lim_rest = limits[0] + in_s * limits[1]
    return masks[((x < lim_x) & (placed - x < lim_rest)).all(axis=0)]


def _enumerate_half(
    nbr: np.ndarray, side: VertexSet, rule: _Rule | None, last_in_r: bool = False
) -> _HalfRows:
    """The subsets of `side`, a run of consecutive vertices, that break no
    cap of `rule` (every subset when `rule` is None), in ascending mask
    order; with `last_in_r`, only those without the half's last vertex.
    nbr[v] holds vertex v's neighbours in the half, as in a row of
    `_half_neighbours`.

    The half's vertices are placed one at a time, lowest mask bit first.
    Each placement doubles the masks, the new vertex in R and then in S,
    which keeps ascending order.  One interval rule prunes: with p placed
    neighbours, x of them in S (a popcount of the mask against the
    vertex's neighbours), a vertex in S keeps its row when
    p - b_hi <= x <= a_hi and a vertex in R when p - c_hi <= x <= d_hi,
    with the caps a_hi, b_hi, c_hi and d_hi of `ColumnPlan.upper_bounds`.

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

    No check runs before the first one, so each level up to it holds every
    subset of its placed vertices: that level is built at once, as a range
    of masks, and only the later levels double.  With `last_in_r`, the
    last placement puts its vertex in R only and adds no rows.
    `generated` is the sum of the level sizes, the single empty row before
    the first placement included, so it counts the larger levels built
    between checks.
    """
    k = len(side)
    low = next(iter(side), 0)
    if side.mask != ((1 << k) - 1) << low:
        raise ValueError("a half must be a run of consecutive vertices")
    # the placements up to the first check, and the mask bits of its level
    first = k if rule is None else min(k, max(_CHECK_ROWS.bit_length(), 1))
    top = first - 1 if last_in_r and k and first == k else first
    masks = np.arange(1 << top, dtype=np.uint32)
    generated = (1 << first) - 1 + len(masks)
    if rule is None or not k:
        return _HalfRows(side, masks, generated)
    # indexed by mask bit: the neighbours of the half's vertices, and their
    # caps and limits
    half_nbr = nbr[low : low + k].tolist()
    cap = rule.cap[low : low + k]
    limits = rule.limits[:, :, low : low + k]
    pending = (1 << first) - 1  # the vertices whose counts changed since the last check
    for j in range(first - 1, k):
        if j >= first:
            if not (last_in_r and j == k - 1):
                masks = np.concatenate([masks, masks | _BITS[j]])
            generated += len(masks)
            pending |= half_nbr[j] & ((1 << j) - 1) | 1 << j
            if len(masks) <= _CHECK_ROWS and j < k - 1:
                continue
        done = (2 << j) - 1
        cols, probe, placed = [], [], []
        for i in range(j + 1):
            if pending >> i & 1:
                p = (half_nbr[i] & done).bit_count()
                if p > cap[i]:
                    cols.append(i)
                    probe.append(half_nbr[i])
                    placed.append(p)
        pending = 0
        if cols:
            masks = _within_bounds(
                masks,
                np.array([probe, cols], dtype=np.uint32)[:, :, None],
                limits[:, :, cols, None],
                np.array(placed, dtype=np.uint8)[:, None],
            )
    return _HalfRows(side, masks, generated)


@dataclass(frozen=True, eq=False)
class _Columns:
    """The columns of both join matrices: the binding columns of a plan in
    layout order, then the two properness columns.  Row 0 of each table
    serves the query half V_A and row 1 the data half V_B.

    A half's matrix is read off one popcount table of its masks against
    `probe`: the half's row of `_half_neighbours`, then the half's mask
    bits.  The column of group k (of 8) and vertex v holds
    `sign` * |N(v) ∩ S| + `const` outside its sentinels: the query +count
    for a lower bound (even k) and -count for an upper one, through
    |N(v) ∩ R| = deg_h(v) - |N(v) ∩ S| in the R-count groups 3-6, where
    deg_h(v) counts v's neighbours in the half; the data the negation plus
    the offset.  A vertex of the half on the side its group does not
    check, R for groups 1-4 and S for groups 5-8, holds `big`: the +2n
    (query) or -2n (data, plus the offset) sentinel.  That is where the
    table's column `side`, the vertex's mask bit, equals `want`; the other
    columns read vertex n, which no mask holds, against 1.  A properness
    column counts vertex n and holds `const` alone: 1 in a query and 0 in
    a data row, until the ∅ and whole-half rows are set.
    """

    probe: np.ndarray
    vertex: np.ndarray
    sign: np.ndarray
    const: np.ndarray
    big: np.ndarray
    side: np.ndarray
    want: np.ndarray

    @classmethod
    def of(cls, nbr: np.ndarray, plan: ColumnPlan) -> "_Columns":
        """The columns of `plan` on the graph of `_half_neighbours` `nbr`."""
        n = nbr.shape[1] - 1
        ka, kb = n // 2, n - n // 2
        probe = np.empty((2, n + 1 + kb), dtype=np.uint32)
        probe[:, : n + 1] = nbr
        probe[:, n + 1 :] = _BITS[:kb]
        group, vertex = np.nonzero(plan.binds)
        c = len(group)
        vertex = np.concatenate([vertex, [n, n]])
        offset = plan.offset
        sign = np.zeros((2, c + 2), dtype=np.int16)
        sign[0, :c] = _SIGN[group]
        sign[1] = -sign[0]
        const = np.zeros((2, c + 2), dtype=np.int16)
        const[:, :c] = np.bitwise_count(nbr[:, vertex[:c]]) * _RDEG[group]
        const[1, :c] = offset - const[1, :c]
        const[0, c:] = 1
        big = np.full((2, c + 2), 2 * n, dtype=np.int16)
        big[1, :c] = offset - 2 * n
        at = vertex - [[0], [ka]]
        mine = (at >= 0) & (at < [[ka], [kb]])
        in_s = np.concatenate([_IN_S[group], [1, 1]])
        return cls(
            probe,
            vertex,
            sign,
            const,
            big,
            np.where(mine, n + 1 + at, n),
            np.where(mine, in_s, 1).astype(np.uint8),
        )


def _join_matrix(cols: _Columns, half: _HalfRows, i: int) -> np.ndarray:
    """The join matrix of half i (0 for the query, 1 for the data) in one
    pass over its masks: one popcount table, the columns gathered from it,
    scaled and shifted, and the sentinels blended in where the gathered side
    bits call for them; then the properness entries of the ∅ and whole-half
    rows, which hold i."""
    masks = half.masks
    table = np.bitwise_count(masks[:, None] & cols.probe[i])
    matrix = table[:, cols.vertex] * cols.sign[i]
    matrix += cols.const[i]
    # the sentinels blended in: three plain passes are faster than one
    # masked copy
    sentinel = table[:, cols.side[i]] == cols.want[i]
    fill = cols.big[i] - matrix
    fill *= sentinel
    matrix += fill
    if len(masks):
        if masks[0] == 0:
            matrix[0, -2] = i
        if masks[-1] == (1 << len(half.side)) - 1:
            matrix[-1, -1] = i
    return matrix


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
    side keeps only the subsets without the last vertex of V_B.  The
    constants of the rule and of the columns are built once for both
    halves; g has at most 64 vertices.
    """
    plan = problem if isinstance(problem, ColumnPlan) else column_plan(g, problem)
    if mirror and not plan.symmetric:
        raise ValueError("only a symmetric problem can be mirrored")
    nbr = _half_neighbours(g)
    rule = _Rule.of(plan.upper_bounds())
    cols = _Columns.of(nbr, plan)
    va, vb = split_halves(g)
    q = _enumerate_half(nbr[0], va, rule)
    d = _enumerate_half(nbr[1], vb, rule, last_in_r=mirror)
    return JoinInputs(
        _join_matrix(cols, q, 0),
        q.masks.astype(np.uint64),
        _join_matrix(cols, d, 1),
        d.masks.astype(np.uint64),
        len(cols.vertex),
        q.generated + d.generated,
        mirror,
    )
