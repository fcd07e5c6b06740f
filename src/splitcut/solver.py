"""End-to-end solving: split the vertex set, enumerate and encode the
subsets of both halves that break no upper bound, and join the two lists
through a dominance index.

The join covers every left-side mask that pruning keeps exactly once.  The
two globally improper pairs, (∅, ∅) and (V_A, V_B), are taken off the counts
of their query rows when they match, so what remains is every feasible
ordered proper cut.  Decision, counting, witness, fixed-size, and min/max
modes all ride on one join.  For fixed-size and min/max modes, the data rows
are labelled by |S'| and the join counts each query's matches per label, so
a match lands in the size stratum |S| + |S'| without any size coordinate.
Decision and witness modes join the queries chunk by chunk and stop at the
first chunk with a proper match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .dominance import DominanceIndex, PointSet, build_index
from .encoding import JoinInputs, build_join_inputs
from .errors import ResourceLimitError
from .graph import Cut, Graph, VertexSet
from .problems import InternalPartition, ProblemSpec, validate_spec

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


@dataclass(frozen=True)
class SolverOptions:
    """Engine selection and tuning knobs; defaults favor reproducibility."""

    engine: str = "auto"  # auto | splitlist | brute | pairjoin
    index_engine: str = "bitset"  # bitset | recursive | naive
    prune: bool = True
    leaf_threshold: int = 32
    shuffle_coords: bool = False
    seed: int = 0
    threads: int = 1
    internal_route: str = "direct"  # direct | icc
    max_n: int = 64
    brute_max_n: int = oracle.BRUTE_FORCE_MAX_N
    pairjoin_max_n: int = oracle.PAIR_JOIN_MAX_N
    memory_budget_mb: int = 4096
    auto_brute_below: int = 8  # "auto" runs brute force up to this n


DEFAULT_OPTIONS = SolverOptions()


@dataclass(slots=True)
class SolveStats:
    stored: int = 0
    queries: int = 0
    dim: int = 0  # columns encoded
    active_dim: int = 0  # columns left after dropping trivially satisfied ones
    generated: int = 0  # rows the encoder built over both halves, partial ones included
    time_ms: float = 0.0


@dataclass(slots=True)
class SolveResult:
    feasible: bool
    count: int | None = None
    witness: Cut | None = None
    optimal_size: int | None = None
    stats: SolveStats = field(default_factory=SolveStats)


def _resolve_engine(g: Graph, opts: SolverOptions) -> str:
    if opts.engine == "auto":
        return "brute" if g.n <= opts.auto_brute_below else "splitlist"
    if opts.engine in ("splitlist", "brute", "pairjoin"):
        return opts.engine
    raise ValueError(f"unknown engine {opts.engine!r}")


def _join_rows(n: int) -> int:
    """Query plus data rows of a join without pruning: all subsets of both
    halves.  No enumeration level holds more rows than its half has subsets."""
    ka = n // 2
    return (1 << ka) + (1 << (n - ka))


def _optimizes(spec: ProblemSpec) -> bool:
    return spec.mode in ("minimize_left", "maximize_left")


def _memory_estimate(g: Graph, spec: ProblemSpec, opts: SolverOptions, engine: str) -> int:
    """Upper bound in bytes on what a split-and-list solve allocates: the
    larger of the encoding peak and the join inputs plus its workspace,
    with 1 MiB for interpreter objects and small arrays."""
    n = g.n
    rows = _join_rows(n)
    direct = isinstance(spec.problem, InternalPartition) and (
        opts.internal_route == "direct"
    )
    dim = 2 * n if direct else 8 * n
    encode = rows * (4 * dim + 12 * n)
    # query, data and masks, then both matrices again without trivial
    # columns, and the side sizes
    inputs = rows * (4 * dim + 16)
    # a data column holds a sentinel and a neighbour count in the second
    # half (its difference of two, in the 2n layout)
    kb = n - n // 2
    distinct = 2 * kb + 2 if direct else kb + 2
    stratified = _optimizes(spec) or spec.size_target is not None
    join = DominanceIndex.workspace_bytes(
        "naive" if engine == "pairjoin" else opts.index_engine,
        1 << kb,
        1 << (n // 2),
        dim,
        distinct,
        opts.threads,
        labels=kb + 1 if stratified else 0,
    )
    return max(encode, inputs + join) + (1 << 20)


def _check_capacity(g: Graph, spec: ProblemSpec, opts: SolverOptions, engine: str) -> None:
    n = g.n
    if n > opts.max_n:
        raise ResourceLimitError(f"n={n} exceeds the solver cap {opts.max_n}")
    est = _memory_estimate(g, spec, opts, engine)
    if est > opts.memory_budget_mb * (1 << 20):
        raise ResourceLimitError(
            f"estimated {est >> 20} MiB exceeds the budget "
            f"{opts.memory_budget_mb} MiB"
        )


def solve(g: Graph, spec: ProblemSpec, opts: SolverOptions = DEFAULT_OPTIONS) -> SolveResult:
    """Solve one instance in the mode carried by the spec.  Min/max modes
    ignore the spec's size target."""
    validate_spec(g, spec)
    t0 = time.perf_counter()
    engine = _resolve_engine(g, opts)
    if engine == "brute":
        result = _solve_brute(g, spec, opts)
    else:
        result = _solve_join(g, spec, opts, engine)
    result.stats.time_ms = (time.perf_counter() - t0) * 1000.0
    return result


def _solve_brute(g: Graph, spec: ProblemSpec, opts: SolverOptions) -> SolveResult:
    if _optimizes(spec):
        res = oracle.brute_force_count(
            g, replace(spec, size_target=None), max_n=opts.brute_max_n
        )
        best = res.min_left if spec.mode == "minimize_left" else res.max_left
        return SolveResult(feasible=best is not None, optimal_size=best)
    res = oracle.brute_force_count(g, spec, max_n=opts.brute_max_n)
    out = SolveResult(feasible=res.count > 0, count=res.count)
    if spec.mode == "witness" and out.feasible:
        mask = oracle.brute_first_feasible(g, spec, max_n=opts.brute_max_n)
        out.witness = Cut.from_left(VertexSet(mask, g.n))
    return out


class _Join:
    """The index over the data rows, and the corrections that turn its
    counts for a slice of query rows into counts of proper matches."""

    def __init__(self, g: Graph, spec: ProblemSpec, opts: SolverOptions, engine: str):
        _check_capacity(g, spec, opts, engine)
        if engine == "pairjoin" and g.n > opts.pairjoin_max_n:
            raise ResourceLimitError(
                f"n={g.n} exceeds pair-join guard {opts.pairjoin_max_n}"
            )
        inputs = build_join_inputs(
            g, spec.problem, prune=opts.prune, internal_route=opts.internal_route
        )
        if len(inputs.query) and len(inputs.data):
            # a column with max(data) <= min(query) holds for every pair;
            # the full matrices are not kept through the join
            active = inputs.data.max(axis=0) > inputs.query.min(axis=0)
            inputs = replace(
                inputs, query=inputs.query[:, active], data=inputs.data[:, active]
            )
        self.inputs, self.query, self.data = inputs, inputs.query, inputs.data
        self.qsizes = np.bitwise_count(inputs.query_masks).astype(np.int64)
        self.dsizes = np.bitwise_count(inputs.data_masks).astype(np.int64)
        self.target = None if _optimizes(spec) else spec.size_target
        stratified = _optimizes(spec) or self.target is not None
        self.threads = opts.threads
        self.index = build_index(
            PointSet.of(self.data),
            engine="naive" if engine == "pairjoin" else opts.index_engine,
            leaf_threshold=opts.leaf_threshold,
            shuffle_coords=opts.shuffle_coords,
            seed=opts.seed,
            labels=self.dsizes if stratified else None,
        )

    def strata(self, lo: int, hi: int) -> np.ndarray:
        """Proper matches of query rows lo:hi: a count per row, or, when the
        data rows are labelled by |S'|, a (rows x labels) matrix."""
        counts = self.index.batch_count(self.query[lo:hi], threads=self.threads)
        for qi, di in self.inputs.improper:
            if lo <= qi < hi:
                if counts.ndim == 1:
                    counts[qi - lo] -= 1
                else:
                    counts[qi - lo, self.dsizes[di]] -= 1
        return counts

    def matches(self, lo: int, hi: int) -> np.ndarray:
        """Proper matches per query row lo:hi; with a size target t, only
        those in stratum t, label t - |S| of each row."""
        counts = self.strata(lo, hi)
        if self.target is None:
            return counts
        col = self.target - self.qsizes[lo:hi]
        ok = (col >= 0) & (col < counts.shape[1])
        out = np.zeros(len(col), dtype=np.int64)
        out[ok] = counts[np.flatnonzero(ok), col[ok]]
        return out

    def strata_by_size(self, n: int) -> np.ndarray:
        """Proper matches per size stratum |S| + |S'| = 0..n of a join whose
        data rows are labelled by |S'|."""
        counts = self.strata(0, len(self.query))
        by_size = np.zeros(n + 1, dtype=np.int64)
        for s in range(n // 2 + 1):
            by_size[s : s + counts.shape[1]] += counts[self.qsizes == s].sum(axis=0)
        return by_size

    def first_match(self) -> int | None:
        """The first query row with a proper match, or None.  Rows are
        joined one index chunk at a time, stopping at a chunk with a match."""
        step = self.index.chunk_rows * max(1, self.threads)
        for lo in range(0, len(self.query), step):
            hit = np.flatnonzero(self.matches(lo, lo + step) > 0)
            if hit.size:
                return lo + int(hit[0])
        return None


def _solve_join(
    g: Graph, spec: ProblemSpec, opts: SolverOptions, engine: str
) -> SolveResult:
    join = _Join(g, spec, opts, engine)
    out = SolveResult(feasible=False)
    out.stats.stored = len(join.data)
    out.stats.queries = len(join.query)
    out.stats.dim = join.inputs.dim
    out.stats.active_dim = join.query.shape[1]
    out.stats.generated = join.inputs.generated

    if _optimizes(spec):
        sizes = np.flatnonzero(join.strata_by_size(g.n))
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
            out.witness = _extract_witness(g, join.inputs, qi, join.target)
    return out


def _extract_witness(
    g: Graph, inputs: JoinInputs, qi: int, size_target: int | None = None
) -> Cut:
    """Query row qi, which has a proper match, joined to its first matching
    data row of the size that completes the target, if any, other than the
    row's improper partner."""
    hits = np.all(inputs.data <= inputs.query[qi][None, :], axis=1)
    if size_target is not None:
        s = int(inputs.query_masks[qi]).bit_count()
        hits &= np.bitwise_count(inputs.data_masks) == size_target - s
    for q, di in inputs.improper:
        if q == qi:
            hits[di] = False
    s2_mask = int(inputs.data_masks[int(np.argmax(hits))])
    left = int(inputs.query_masks[qi]) | (s2_mask << (g.n // 2))
    return Cut.from_left(VertexSet(left, g.n))


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
    engine = _resolve_engine(g, opts)
    if engine == "brute":
        res = oracle.brute_force_count(g, spec, max_n=opts.brute_max_n)
        return res.counts_by_size.tolist()
    return _Join(g, spec, opts, engine).strata_by_size(g.n).tolist()


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


def solve_vector_box_sum(
    vectors,
    lo,
    hi,
    *,
    allow_empty: bool = True,
    index_engine: str = "bitset",
    leaf_threshold: int = 32,
) -> list[int] | None:
    """Find a subset of vectors whose sum lies in the box [lo, hi] coordinatewise.

    Both halves enumerate all of their subsets; a data vector (s, -s) for a
    second-half sum s is dominated by a query (hi - a, a - lo) for a
    first-half sum a exactly when lo <= a + s <= hi.  The empty subset is
    admissible unless `allow_empty` is False.  Returns the sorted indices of
    some witness subset, or None.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    V = np.asarray(vectors, dtype=np.int64)
    if V.size == 0:
        V = V.reshape(0, lo.shape[0] if lo.ndim == 1 else 0)
    if V.ndim != 2:
        raise ValueError("vectors must form a 2-d array")
    dim = V.shape[1]
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError("box bounds do not match the vector dimension")
    if np.any(lo > hi):
        raise ValueError("box has lo > hi on some coordinate")

    ka = V.shape[0] // 2
    sums_a = _subset_sums(V[:ka])
    sums_b = _subset_sums(V[ka:])
    data = np.concatenate([sums_b, -sums_b], axis=1)
    queries = np.concatenate([hi[None, :] - sums_a, sums_a - lo[None, :]], axis=1)

    index = build_index(
        PointSet.of(data), engine=index_engine, leaf_threshold=leaf_threshold
    )
    counts = index.batch_count(queries)
    if not allow_empty and np.all(lo <= 0) and np.all(0 <= hi):
        counts[0] -= 1  # the (empty, empty) pair is the only excluded one
    for qi in np.nonzero(counts > 0)[0]:
        hits = np.all(data <= queries[qi][None, :], axis=1)
        if not allow_empty and qi == 0:
            hits[0] = False
        di = int(np.argmax(hits))
        if not hits[di]:
            continue
        subset = [j for j in range(ka) if (int(qi) >> j) & 1]
        subset += [ka + j for j in range(V.shape[0] - ka) if (di >> j) & 1]
        return subset
    return None
