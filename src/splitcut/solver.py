"""End-to-end solving: split the vertex set, enumerate and encode the
subsets of both halves that break no cap, and join the two lists through a
dominance index, at every n.

The split is a bisection with few cut edges, found by a greedy pair-swap
search from the index split (`_low_cut_split`).  The graph is relabelled
once so that the bisection is the index split, and the column plan's
intervals and degrees are permuted with it, so per-vertex constraints
stay with their vertices; the encoder, the mirror and the index run
unchanged on the relabelled graph, and a witness is mapped back.  Fewer
cut edges commit more of each count inside its half, where the caps prune.

The join covers every left-side mask that pruning keeps exactly once, and
the encoder's two properness columns fail the improper pairs (∅, ∅) and
(V_A, V_B), so its matches are exactly the feasible ordered proper cuts.
Every mode rides on one join, which counts each query's matches per data
row label.  Fixed-size and min/max modes label the data rows by |S'|, so a
match lands in the size stratum |S| + |S'| without any size coordinate;
the other modes label every data row 0.  Decision and witness modes join
the queries chunk by chunk and stop at the first chunk with a match.

When the problem is symmetric (swapping L and R changes no interval), its
feasible cuts come in reversed pairs (L, R) and (R, L), and the join is
mirrored: the last vertex of V_B stays in R', so each pair is joined once.
The answers follow from the reversed-pair rule: the count doubles, size
stratum t is fixed(t) + fixed(n - t), and a witness found in stratum
n - t is returned reversed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dominance import _BLOCK_ROWS, DominanceIndex, _check_integer, build_index
from .encoding import ColumnPlan, JoinInputs, build_join_inputs, column_plan
from .errors import ResourceLimitError
from .graph import Cut, Graph, VertexSet
from .problems import ProblemSpec, validate_spec

__all__ = [
    "SolveResult",
    "SolveStats",
    "SolverOptions",
    "construct_witness",
    "count_by_size",
    "count_solutions",
    "optimize_size",
    "solve",
    "solve_vector_box_sum",
    "solve_with_size",
]


# The join's vertex cap: the width of the vertex masks, which the split
# search and the encoder hold as uint64.
_MAX_N = 64


@dataclass(frozen=True)
class SolverOptions:
    """The resource cap of the split-and-list join that depends on the host:
    its up-front memory estimate in MiB."""

    memory_budget_mb: int = 4096


DEFAULT_OPTIONS = SolverOptions()


@dataclass(slots=True)
class SolveStats:
    stored: int = 0
    queries: int = 0
    dim: int = 0  # binding columns encoded, plus the two properness columns
    active_dim: int = 0  # columns left after dropping trivially satisfied ones
    generated: int = 0  # rows of every enumeration level of both halves, dropped ones included
    mirrored: bool = False  # the join kept one cut of each reversed pair
    cut_edges: int = 0  # edges between the two halves of the chosen split
    time_ms: float = 0.0


@dataclass(slots=True)
class SolveResult:
    feasible: bool
    count: int | None = None
    witness: Cut | None = None
    optimal_size: int | None = None
    stats: SolveStats = field(default_factory=SolveStats)


def _join_rows(n: int) -> int:
    """Query plus data rows of a join without pruning: all subsets of both
    halves.  No enumeration level holds more rows than its half has subsets."""
    ka = n // 2
    return (1 << ka) + (1 << (n - ka))


def _optimizes(spec: ProblemSpec) -> bool:
    return spec.mode in ("minimize_left", "maximize_left")


def _labels_by_size(spec: ProblemSpec) -> bool:
    """Whether the join labels its data rows by |S'|, for the size strata of
    min/max modes and of a size target, rather than all by 0."""
    return _optimizes(spec) or spec.size_target is not None


def _memory_estimate(g: Graph, spec: ProblemSpec, plan: ColumnPlan | None = None) -> int:
    """Upper bound in bytes on what a split-and-list solve allocates: the
    larger of the encoding peak and the join inputs plus its workspace,
    with 1 MiB for interpreter objects and small arrays.  `plan` is the
    instance's column plan, when already built.

    Encoding allows 3 bytes a row per column and 12n more.  A half's
    matrix takes 2 bytes a row per column, and 1 more while it is built:
    the gathered uint8 counts before they are scaled, or the gathered mask
    bits of the half's own vertices, which are scaled in place.  The first
    half's matrix is held while the second is built.  Before that, a half's
    popcount table is a rows x (n + 1 + n/2) uint32 array (about 6n bytes a
    row) and its uint8 counts."""
    n = g.n
    rows = _join_rows(n)
    dim = (plan or column_plan(g, spec.problem)).dim + 2  # and the properness columns
    encode = rows * (3 * dim + 12 * n)
    # query, data and masks, then both matrices again without trivial
    # columns, and the side sizes
    inputs = rows * (4 * dim + 16)
    # a data column of a vertex of V_B holds its neighbour counts in V_B,
    # at most kb values, shifted by the end of either side; any other
    # column at most kb + 1 counts, or the two properness values
    kb = n - n // 2
    join = DominanceIndex.workspace_bytes(
        1 << kb,
        1 << (n // 2),
        dim,
        2 * kb,
        labels=kb + 1 if _labels_by_size(spec) else 1,
    )
    return max(encode, inputs + join) + (1 << 20)


def _check_budget(est: int, budget_mb: int, what: str = "") -> None:
    """Refuse, before anything large is built, a solve whose memory estimate
    of `est` bytes is over the budget; `what` names the input."""
    if est > budget_mb << 20:
        raise ResourceLimitError(
            f"{what}estimated {est >> 20} MiB exceeds the budget {budget_mb} MiB"
        )


def _check_capacity(
    g: Graph, spec: ProblemSpec, opts: SolverOptions, plan: ColumnPlan
) -> None:
    n = g.n
    if n > _MAX_N:
        raise ResourceLimitError(f"n={n} exceeds the solver cap {_MAX_N}")
    _check_budget(_memory_estimate(g, spec, plan), opts.memory_budget_mb)


def _low_cut_split(g: Graph) -> tuple[Graph, np.ndarray, int]:
    """A relabelling of g whose index split (`split_halves`) has few cut
    edges: the relabelled graph, the order (its vertex i is vertex order[i]
    of g) and its cut edges.

    A greedy pair-swap search in the style of Kernighan-Lin starts from the
    index split.  While some swap of a in V_A and b in V_B removes cut
    edges, it swaps the pair that removes the most, the smallest a and then
    the smallest b on a tie.  The new V_A, then the new V_B, each in
    ascending order, are renamed 0..n-1.

    With side[v] = 1 in V_A and -1 in V_B and y = adj @ side, a swap of a
    and b removes y[b] - y[a] - 2 adj[a, b] cut edges.  With
    w = y - n side, the matrix w[i] - w[j] + 2 adj[i, j] holds minus that
    minus 2n for every a, b, and at least -2(n - 1) for every other pair,
    so its smallest entry is below -2n exactly when some swap pays."""
    n = g.n
    shifts = np.arange(n, dtype=np.uint64)
    bits = (np.array(g.adj, dtype=np.uint64)[:, None] >> shifts) & np.uint64(1)
    adj = bits.astype(np.float64)  # small integers, exact in float64
    shifted = adj.copy()
    np.fill_diagonal(shifted, -n)
    twice = adj + adj
    side = np.ones(n)
    side[n // 2 :] = -1.0
    while True:
        w = shifted @ side
        loss = w[:, None] - w
        loss += twice
        f = int(loss.argmin())
        if loss.item(f) >= -2 * n:
            break
        a, b = divmod(f, n)
        side[a], side[b] = -1.0, 1.0
    # side @ adj @ side is twice the uncut edges less twice the cut ones,
    # and side @ w is that less n^2
    cut_edges = int(adj.sum() - side @ w - n * n) // 4
    order = np.argsort(-side, kind="stable")
    place = np.empty(n, dtype=np.uint64)
    place[order] = shifts
    adj_masks = tuple((bits[order] << place).sum(axis=1).tolist())
    return Graph._trusted(n, adj_masks), order, cut_edges


class _Join:
    """The index over the data rows and the query rows it counts, built on
    `graph`, the relabelling of the input by `_low_cut_split`; its vertex i
    is vertex order[i] of the input."""

    def __init__(self, g: Graph, spec: ProblemSpec, opts: SolverOptions):
        plan = column_plan(g, spec.problem)
        _check_capacity(g, spec, opts, plan)
        self.graph, self.order, self.cut_edges = _low_cut_split(g)
        plan = plan.permuted(self.order)
        inputs = build_join_inputs(self.graph, plan, mirror=plan.symmetric)
        if len(inputs.query) and len(inputs.data):
            # a column with max(data) <= min(query) holds for every pair
            # (abdom has such columns beyond the plan); the full matrices
            # are not kept through the join
            active = inputs.data.max(axis=0) > inputs.query.min(axis=0)
            inputs = replace(
                inputs, query=inputs.query[:, active], data=inputs.data[:, active]
            )
        self.inputs, self.query, self.data = inputs, inputs.query, inputs.data
        self.n, self.mirrored = g.n, inputs.mirrored
        self.qsizes = np.bitwise_count(inputs.query_masks).astype(np.int64)
        dsizes = np.bitwise_count(inputs.data_masks).astype(np.int64)
        self.target = None if _optimizes(spec) else spec.size_target
        labels = dsizes if _labels_by_size(spec) else np.zeros_like(dsizes)
        self.index = build_index(self.data, labels=labels)

    def matches(self, lo: int, hi: int) -> np.ndarray:
        """Proper matches per query row lo:hi; with a size target t, only
        those in stratum t, label t - |S| of each row.  A mirrored join
        counts each match for itself and its reverse: twice, or with a
        target once in stratum t and once in stratum n - t."""
        counts = self.index.batch_count(self.query[lo:hi])
        if self.target is None:
            out = counts.sum(axis=1)
            return 2 * out if self.mirrored else out
        sizes = self.qsizes[lo:hi]
        out = _label(counts, self.target - sizes)
        if not self.mirrored:
            return out
        if 2 * self.target == self.n:
            return 2 * out
        return out + _label(counts, self.n - self.target - sizes)

    def strata_by_size(self) -> np.ndarray:
        """Proper matches per size stratum |S| + |S'| = 0..n of a join whose
        data rows are labelled by |S'|; a mirrored join adds the reverse of
        each match, of size n - |S| - |S'|."""
        counts = self.index.batch_count(self.query)
        by_size = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(by_size, self.qsizes[:, None] + np.arange(counts.shape[1]), counts)
        return by_size + by_size[::-1] if self.mirrored else by_size

    def first_match(self) -> int | None:
        """The first query row with a proper match, or None.  Rows are
        joined one index chunk at a time, stopping at a chunk with a match."""
        step = self.index.chunk_rows
        for lo in range(0, len(self.query), step):
            hit = np.flatnonzero(self.matches(lo, lo + step) > 0)
            if hit.size:
                return lo + int(hit[0])
        return None


def _label(counts: np.ndarray, col: np.ndarray) -> np.ndarray:
    """counts[i, col[i]] per row, 0 where col[i] names no label."""
    ok = (col >= 0) & (col < counts.shape[1])
    out = np.zeros(len(col), dtype=np.int64)
    out[ok] = counts[np.flatnonzero(ok), col[ok]]
    return out


def solve(g: Graph, spec: ProblemSpec, opts: SolverOptions = DEFAULT_OPTIONS) -> SolveResult:
    """Solve one instance in the mode carried by the spec.  Min/max modes
    ignore the spec's size target."""
    validate_spec(g, spec)
    t0 = time.perf_counter()
    join = _Join(g, spec, opts)
    out = SolveResult(feasible=False)
    out.stats.stored = len(join.data)
    out.stats.queries = len(join.query)
    out.stats.dim = join.inputs.dim
    out.stats.active_dim = join.query.shape[1]
    out.stats.generated = join.inputs.generated
    out.stats.mirrored = join.mirrored
    out.stats.cut_edges = join.cut_edges

    if _optimizes(spec):
        sizes = np.flatnonzero(join.strata_by_size())
        out.feasible = sizes.size > 0
        if out.feasible:
            out.optimal_size = int(sizes[0] if spec.mode == "minimize_left" else sizes[-1])
    elif spec.mode == "count":
        out.count = int(join.matches(0, len(join.query)).sum())
        out.feasible = out.count > 0
    else:
        qi = join.first_match()
        out.feasible = qi is not None
        if qi is None:
            out.count = 0
        elif spec.mode == "witness":
            cut = _extract_witness(join.graph, join.inputs, qi, join.target)
            left = sum(1 << int(join.order[v]) for v in cut.left)
            out.witness = Cut.from_left(VertexSet(left, g.n))
    out.stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return out


def _extract_witness(
    g: Graph, inputs: JoinInputs, qi: int, size_target: int | None = None
) -> Cut:
    """Query row qi, which has a proper match, joined to its first matching
    data row of the size that completes the target, if any, as a cut of g,
    the graph the join was built on.  A mirrored join without such a row
    completes the target through the reverse of a cut of size n - target."""
    hits = np.all(inputs.data <= inputs.query[qi][None, :], axis=1)
    reverse = False
    if size_target is not None:
        s = int(inputs.query_masks[qi]).bit_count()
        dsizes = np.bitwise_count(inputs.data_masks)
        sized = hits & (dsizes == size_target - s)
        if inputs.mirrored and not sized.any():
            sized, reverse = hits & (dsizes == g.n - size_target - s), True
        hits = sized
    s2_mask = int(inputs.data_masks[int(np.argmax(hits))])
    left = int(inputs.query_masks[qi]) | (s2_mask << (g.n // 2))
    cut = Cut.from_left(VertexSet(left, g.n))
    return Cut(cut.right, cut.left) if reverse else cut


def count_solutions(
    g: Graph, spec: ProblemSpec, opts: SolverOptions = DEFAULT_OPTIONS
) -> int:
    """Exact number of feasible ordered proper cuts."""
    return solve(g, replace(spec, mode="count"), opts).count


def count_by_size(
    g: Graph, spec: ProblemSpec, opts: SolverOptions = DEFAULT_OPTIONS
) -> list[int]:
    """Exact number of feasible ordered proper cuts with |V_L| = t, for
    t = 0..n: the size strata of the one join a min/max solve runs."""
    spec = replace(spec, mode="minimize_left", size_target=None)
    validate_spec(g, spec)
    return _Join(g, spec, opts).strata_by_size().tolist()


def construct_witness(
    g: Graph, spec: ProblemSpec, opts: SolverOptions = DEFAULT_OPTIONS
) -> Cut | None:
    """Some feasible cut, or None when the instance is infeasible."""
    return solve(g, replace(spec, mode="witness"), opts).witness


def solve_with_size(
    g: Graph, spec: ProblemSpec, t: int, opts: SolverOptions = DEFAULT_OPTIONS
) -> SolveResult:
    """Solve restricted to cuts with exactly t vertices on the left side.
    A decide spec is counted, so the result carries the stratum's count."""
    mode = "count" if spec.mode == "decide" else spec.mode
    return solve(g, replace(spec, size_target=t, mode=mode), opts)


def optimize_size(
    g: Graph,
    spec: ProblemSpec,
    direction: str,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> int | None:
    """Smallest or largest feasible left-side size, or None if infeasible."""
    if direction not in ("minimize", "maximize"):
        raise ValueError(f"direction must be minimize or maximize, got {direction!r}")
    mode = "minimize_left" if direction == "minimize" else "maximize_left"
    return solve(g, replace(spec, mode=mode, size_target=None), opts).optimal_size


def _subset_sums(vectors: np.ndarray) -> np.ndarray:
    """Sums of all 2^k subsets, indexed by bitmask."""
    k, dim = vectors.shape
    out = np.zeros((1 << k, dim), dtype=np.int64)
    for j in range(k):
        step = 1 << j
        out[step : 2 * step] = out[:step] + vectors[j]
    return out


def _box_sum_bytes(
    V: np.ndarray, lo: np.ndarray, hi: np.ndarray, allow_empty: bool
) -> int:
    """Upper bound in bytes on what `solve_vector_box_sum` allocates: each
    half's sums, its matrix and one more copy of 2 * dim columns while it
    is built, the witness scan's flags, the index over the data rows, whose
    columns take at most min(rows, block rows, span of the sums + 1) values,
    and 1 MiB.  ValueError when a subset sum, a data entry s or -s, or a
    query entry hi - a or a - lo can leave int64: in Python ints, a half's
    sums lie between the sums of its negative and of its positive entries."""
    (k, dim), ka = V.shape, len(V) // 2
    v, top, bottom = V.astype(object), hi.astype(object), lo.astype(object)
    neg, pos = np.minimum(v, 0), np.maximum(v, 0)
    neg_a, pos_a, neg_b, pos_b = (x.sum(0) for x in (neg[:ka], pos[:ka], neg[ka:], pos[ka:]))
    ends = np.concatenate(
        [neg_a, pos_a, neg_b, pos_b, -neg_b, -pos_b]
        + [top - pos_a, top - neg_a, neg_a - bottom, pos_a - bottom]
    )
    wide = np.iinfo(np.int64)
    if ends.size and (ends.min() < wide.min or ends.max() > wide.max):
        raise ValueError("subset sums or box offsets do not fit int64")
    na, nb = 1 << ka, 1 << (k - ka)
    cols = 2 * dim + (not allow_empty)
    span = int((pos_b - neg_b).max()) if dim else 0
    distinct = min(nb, _BLOCK_ROWS, max(span + 1, 2))
    join = DominanceIndex.workspace_bytes(nb, na, cols, distinct)
    return 8 * (na + nb) * (3 * dim + cols) + nb * (cols + 1) + join + (1 << 20)


def solve_vector_box_sum(
    vectors, lo, hi, *, allow_empty: bool = True
) -> list[int] | None:
    """Find a subset of vectors whose sum lies in the box [lo, hi] coordinatewise.

    Both halves enumerate all of their subsets; a data vector (s, -s) for a
    second-half sum s is dominated by a query (hi - a, a - lo) for a
    first-half sum a exactly when lo <= a + s <= hi.  The empty subset is
    admissible unless `allow_empty` is False, which appends a 0/1 column
    that fails only the (empty, empty) pair.  Returns the sorted indices of
    some witness subset, or None.

    Vectors and bounds must be integers, and every subset sum and query and
    data entry must fit int64 (ValueError otherwise).  The subset sums, both
    matrices and the index must fit the default memory budget, or
    ResourceLimitError is raised before any of them is built.
    """
    lo, hi, V = np.asarray(lo), np.asarray(hi), np.asarray(vectors)
    for a, what in ((V, "vectors"), (lo, "box bounds"), (hi, "box bounds")):
        _check_integer(a, what)
    lo, hi, V = lo.astype(np.int64), hi.astype(np.int64), V.astype(np.int64)
    if V.size == 0:
        V = V.reshape(0, lo.shape[0] if lo.ndim == 1 else 0)
    if V.ndim != 2:
        raise ValueError("vectors must form a 2-d array")
    dim = V.shape[1]
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError("box bounds do not match the vector dimension")
    if np.any(lo > hi):
        raise ValueError("box has lo > hi on some coordinate")

    _check_budget(
        _box_sum_bytes(V, lo, hi, allow_empty),
        DEFAULT_OPTIONS.memory_budget_mb,
        f"{len(V)} vectors' subset sums and join: ",
    )
    ka = len(V) // 2
    sums_a = _subset_sums(V[:ka])
    sums_b = _subset_sums(V[ka:])
    data = np.concatenate([sums_b, -sums_b], axis=1)
    queries = np.concatenate([hi[None, :] - sums_a, sums_a - lo[None, :]], axis=1)
    if not allow_empty:
        data = np.column_stack([data, np.arange(len(data)) == 0])
        queries = np.column_stack([queries, np.arange(len(queries)) != 0])

    counts = build_index(data).batch_count(queries)
    matched = np.flatnonzero(counts > 0)
    if not matched.size:
        return None
    # the first query row with a match, joined to its first matching data row
    qi = int(matched[0])
    hits = np.all(data <= queries[qi][None, :], axis=1)
    mask = qi | int(np.argmax(hits)) << ka
    return [j for j in range(len(V)) if mask >> j & 1]
