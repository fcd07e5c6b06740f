"""Vector encodings of half-bipartitions.

A bipartition (S, R) of the first half yields a query vector and a
bipartition (S', R') of the second half yields a data vector, arranged so
that componentwise dominance (query >= data) holds exactly when the combined
cut (S ∪ S', rest) is feasible.  Every problem is read as its side
intervals (`side_intervals`): I_L(v), the values of ns(v) = |N(v) ∩ L|
that v accepts in L, and I_R(v), those it accepts in R.  The layout has
two columns per vertex: column 2v checks the low end of v's interval and
column 2v + 1 its high end.  Only the half that holds v knows v's side,
so that half writes the end in: with sigma = +1 and beta the low end on
the low column, and sigma = -1 and beta the high end on the high column,
the half h with left part S writes

    row_h(S) = sigma * |N(v) ∩ S| - sigma * beta_side(v) * [v in h].

The query is row_A and the data row is -row_B, so data <= query exactly
when row_A + row_B >= 0 on every column: sigma * (ns(v) - beta_side(v)) >=
0, that is every ns(v) lies in its side's interval.  An empty interval
fails by itself.  `encode_half_row` is the single-pair reference of one
half's row over all 2n columns, the ∅ and whole-half rows included.  The
batch builders encode only the columns that can fail, where some side's low
end is above 0 or its high end below deg(v) (see `column_plan`), and
produce whole matrices with numpy; they are tested against the reference
restricted to those columns.

The batch builders encode every subset of each half that breaks no cap,
the empty set and the whole half included, so one join over the two lists
sees every left-side mask that can still be feasible exactly once.  The
caps come from the interval ends: a vertex in L has ns(v) <= U_L and
deg(v) - ns(v) <= deg(v) - L_L, one in R ns(v) <= U_R and
deg(v) - ns(v) <= deg(v) - L_R (`ColumnPlan.upper_bounds`), and its counts
inside its half, which only grow as vertices are placed, must keep them.
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
and the half's own bits, from which every column is gathered and scaled
by sigma, and a constant added that depends on the side of the half's own
vertices.  The per-column constants of both halves are built once per
solve (`_Columns`).

A problem whose side intervals are unchanged when L and R swap
(`ColumnPlan.symmetric`) has its feasible cuts in reversed pairs.  A
mirrored build places the last vertex of V_B in R' only, so its data side
holds one cut of each pair and half the rows; the whole-V_B row is gone
with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, VertexSet, neighbor_count, split_halves
from .problems import Problem, side_intervals

__all__ = [
    "ColumnPlan",
    "JoinInputs",
    "build_join_inputs",
    "column_plan",
    "encode_half_row",
]


def encode_half_row(
    g: Graph, intervals: np.ndarray, half: VertexSet, s: VertexSet
) -> np.ndarray:
    """The 2n-entry int16 row of the bipartition (S, half \\ S) of one half of
    g under the (n, 2, 2) table `intervals` of `side_intervals`: entry 2v
    holds ns - lo and entry 2v + 1 holds hi - ns, ns = |N(v) ∩ S|, where
    [lo, hi] is the interval of v's side for v in the half, and
    lo = hi = 0 for any other vertex.  A query is the row of V_A and a data
    vector the negated row of V_B.  S may be empty or the whole half."""
    n = g.n
    if half.n != n or s.n != n:
        raise ValueError("half or S over a different universe")
    if s.mask & ~half.mask:
        raise ValueError("S is not within the half")
    if np.shape(intervals) != (n, 2, 2):
        raise ValueError(f"expected shape ({n}, 2, 2), got {np.shape(intervals)}")
    row = np.zeros((n, 2), dtype=np.int16)
    for v in range(n):
        ns = neighbor_count(g, v, s)
        lo = hi = 0
        if v in half:
            lo, hi = intervals[v][int(v not in s)]
        row[v] = ns - lo, hi - ns
    return row.ravel()


# ---------------------------------------------------------------------------
# Batch builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ColumnPlan:
    """Which columns of the 2n layout can fail for one instance.

    `intervals[v]` holds I_L(v) and I_R(v) as the rows (low end, high end)
    of an (n, 2, 2) table, and `deg` holds the degrees.  `binds` flags the
    binding columns as an (n, 2) table in layout order: column (v, e),
    e = 0 for the low column and 1 for the high one, binds when some
    side's low end is above 0 (e = 0) or its high end below deg(v)
    (e = 1).  Every other column holds for every pair, since ns(v) lies in
    [0, deg(v)], so only binding columns are encoded.
    """

    intervals: np.ndarray
    deg: np.ndarray
    binds: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.binds.sum())

    @property
    def symmetric(self) -> bool:
        """Whether swapping L and R leaves every constraint unchanged: a
        vertex on the right of the swapped cut has ns(v) = deg(v) - ns'(v),
        so I_R must be deg(v) - I_L."""
        flipped = self.deg[:, None] - self.intervals[:, 0, ::-1]
        return bool((self.intervals[:, 1] == flipped).all())

    def upper_bounds(self) -> np.ndarray | None:
        """The caps on the four counts per vertex (left own, left cross,
        right own, right cross) as rows of a (4, n) table, or None when no
        cap is below deg(v): U_L, deg(v) - L_L, deg(v) - L_R and U_R for
        I_L = [L_L, U_L] and I_R = [L_R, U_R].  So a lower bound prunes too:
        internal partition caps each cross count at floor(deg(v) / 2).  A
        cap is negative when a low end exceeds deg(v) or a high end is
        below 0, and then no row keeps the vertex on that side."""
        # the rows L_L, U_L, L_R, U_R reordered to U_L, L_L, L_R, U_R
        caps = self.intervals.reshape(-1, 4).T[[1, 0, 2, 3]]
        np.subtract(self.deg, caps[1:3], out=caps[1:3])
        if (caps >= self.deg).all():
            return None
        return caps

    def permuted(self, order: np.ndarray) -> "ColumnPlan":
        """The plan of the graph whose vertex i is vertex order[i] here."""
        return ColumnPlan(self.intervals[order], self.deg[order], self.binds[order])


def column_plan(g: Graph, problem: Problem) -> ColumnPlan:
    """The binding columns of the problem's side intervals on g."""
    intervals = side_intervals(g, problem)
    low, high = intervals.transpose(2, 0, 1)
    binds = np.stack([low.max(axis=1) > 0, high.min(axis=1) < g.degrees], axis=1)
    return ColumnPlan(intervals, g.degrees, binds)


@dataclass(frozen=True, eq=False)
class _Rule:
    """The interval rule of the enumeration over all n vertices: `cap[v]` is
    v's smallest cap, `limits[0, :, v]` its limits on x and on p - x in R,
    and `limits[1, :, v]` what they rise by in S (see `_enumerate_half`).

    A limit is one above its cap and at least 0, so a negative cap fails
    every count: U_R on x and deg(v) - L_R on p - x in R, U_L and
    deg(v) - L_L in S, for I_L = [L_L, U_L] and I_R = [L_R, U_R].  The
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
    p - (deg(v) - L_L) <= x <= U_L and a vertex in R when
    p - (deg(v) - L_R) <= x <= U_R, with the caps of
    `ColumnPlan.upper_bounds` for I_L = [L_L, U_L] and I_R = [L_R, U_R].

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
    bits.  Column j, of vertex v, holds sign[i, j] * |N(v) ∩ S|, the sign
    being sigma in a query and -sigma in a data row.  In the half that
    holds v it also holds const[j] + step[j] * [v in S], with
    const = -sign * beta_R(v) and step = -sign * (beta_L(v) - beta_R(v)),
    which subtracts the end of v's side (see the module docstring);
    side[j] is the table's column of v's mask bit.  In layout order the
    columns of each half's own vertices are one run, `own[i]`.  A
    properness column counts vertex n, which no mask holds, and is set to 1
    in a query and 0 in a data row, but for the ∅ and whole-half rows.
    """

    probe: np.ndarray
    vertex: np.ndarray
    sign: np.ndarray
    own: tuple[slice, slice]
    side: np.ndarray
    const: np.ndarray
    step: np.ndarray

    @classmethod
    def of(cls, nbr: np.ndarray, plan: ColumnPlan) -> "_Columns":
        """The columns of `plan` on the graph of `_half_neighbours` `nbr`."""
        n = nbr.shape[1] - 1
        ka, kb = n // 2, n - n // 2
        probe = np.empty((2, n + 1 + kb), dtype=np.uint32)
        probe[:, : n + 1] = nbr
        probe[:, n + 1 :] = _BITS[:kb]
        vertex, end = np.nonzero(plan.binds)
        c = len(vertex)
        sigma = 1 - 2 * end
        sign = np.zeros((2, c + 2), dtype=np.int16)
        sign[0, :c] = sigma
        sign[1] = -sign[0]
        # the sign of each column in the half that holds its vertex, and
        # the low or high end of both sides that it checks
        in_b = vertex >= ka
        own_sign = np.where(in_b, -sigma, sigma)
        beta_l, beta_r = plan.intervals[vertex, :, end].T
        split = c - int(in_b.sum())
        return cls(
            probe,
            np.concatenate([vertex, [n, n]]),
            sign,
            (slice(0, split), slice(split, c)),
            n + 1 + vertex - ka * in_b,
            (-own_sign * beta_r).astype(np.int16),
            (-own_sign * (beta_l - beta_r)).astype(np.int8),
        )


def _join_matrix(cols: _Columns, half: _HalfRows, i: int) -> np.ndarray:
    """The join matrix of half i (0 for the query, 1 for the data) in one
    pass over its masks: one popcount table, every column gathered from it
    and scaled, and the ends of the sides of the half's own vertices
    subtracted in their run of columns, by their gathered mask bits; then
    the properness columns."""
    masks = half.masks
    table = np.bitwise_count(masks[:, None] & cols.probe[i])
    matrix = table[:, cols.vertex] * cols.sign[i]
    run = cols.own[i]
    # the steps fit int8 (|step| <= n), so they scale the gathered bits in
    # place
    bits = table[:, cols.side[run]].view(np.int8)
    bits *= cols.step[run]
    own = matrix[:, run]
    own += bits
    own += cols.const[run]
    matrix[:, -2:] = 1 - i
    if len(masks):
        if masks[0] == 0:
            matrix[0, -2] = i
        if masks[-1] == (1 << len(half.side)) - 1:
            matrix[-1, -1] = i
    return matrix


@dataclass
class JoinInputs:
    """Join matrices over the subsets of each half that pruning keeps: one
    query row per (S, R) of V_A and one data row per (S', R') of V_B, with
    originating submasks in ascending order.

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
