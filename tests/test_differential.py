"""Generated differential test: the split-and-list solver against the
brute-force oracle and the definition-direct validator.

Hypothesis draws a graph with at most 11 vertices, a problem, an optional
size target and a mode; every drawn case must give the oracle's count,
feasibility, extreme sizes and size strata, and any witness must be a
proper cut the validator accepts.  Each case runs `solve` and
`count_by_size`, and at n <= 8, where those enumerate every cut, the join
as well (`solve_routes`, `strata_routes`).  A second test draws only
symmetric problems, which the solver joins mirrored, and checks every size
target of each drawn graph.  A third solves random relabellings of each
drawn graph, with per-vertex constraints moved along with their vertices,
and expects the answers of the graph itself: the solver picks its own split,
so only answers that do not depend on vertex names may come out.
`derandomize=True` keeps the examples the same on every run.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Graph,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    ProblemSpec,
    VertexConstraints,
    brute_force_count,
    validate_cut,
)

from helpers import solve_join, solve_routes, strata_routes


@st.composite
def intervals(draw, n):
    lo = draw(st.integers(0, n))
    return Interval(lo, draw(st.integers(lo, n)))


@st.composite
def graphs(draw, n=None):
    n = draw(st.integers(1, 11)) if n is None else n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, x in zip(pairs, keep) if x < p])


@st.composite
def problems(draw, n):
    kind = draw(st.sampled_from(["dcut", "internal", "abdom", "icc"]))
    if kind == "dcut":
        return DCut(draw(st.integers(0, min(n, 3))))
    if kind == "internal":
        return InternalPartition()
    if kind == "abdom":
        return AlphaBetaDomination(draw(intervals(n)), draw(intervals(n)))
    return IntervalConstrainedCut(
        tuple(
            VertexConstraints(*(draw(intervals(n)) for _ in range(4)))
            for _ in range(n)
        )
    )


@st.composite
def symmetric_problems(draw, n):
    """D-cut, internal partition, or interval constraints whose right-side
    intervals copy the left-side ones: swapping L and R changes nothing."""
    kind = draw(st.sampled_from(["dcut", "internal", "icc"]))
    if kind == "dcut":
        return DCut(draw(st.integers(0, min(n, 3))))
    if kind == "internal":
        return InternalPartition()
    per_vertex = []
    for _ in range(n):
        own, cross = draw(intervals(n)), draw(intervals(n))
        per_vertex.append(VertexConstraints(own, cross, own, cross))
    return IntervalConstrainedCut(tuple(per_vertex))


@st.composite
def cases(draw):
    g = draw(graphs())
    problem = draw(problems(g.n))
    mode = draw(
        st.sampled_from(["decide", "count", "witness", "minimize_left", "maximize_left"])
    )
    size_target = None
    if g.n > 1 and mode not in ("minimize_left", "maximize_left"):
        size_target = draw(st.none() | st.integers(1, g.n - 1))
    return g, ProblemSpec(problem, size_target=size_target, mode=mode)


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_solver_matches_oracle(case):
    g, spec = case
    oracle = brute_force_count(g, spec)
    for solve in solve_routes(g):
        result = solve(g, spec)
        if spec.mode in ("minimize_left", "maximize_left"):
            sizes = [t for t, c in enumerate(oracle.counts_by_size.tolist()) if c]
            best = (min if spec.mode == "minimize_left" else max)(sizes, default=None)
            assert result.optimal_size == best
            assert result.feasible == bool(sizes)
            continue
        assert result.feasible == (oracle.count > 0)
        if spec.mode == "count":
            assert result.count == oracle.count
        if spec.mode == "witness":
            assert (result.witness is not None) == result.feasible
        if result.witness is not None:
            assert result.witness.proper
            assert validate_cut(g, spec.problem, result.witness)[0]
            if spec.size_target is not None:
                assert len(result.witness.left) == spec.size_target
    if spec.mode in ("minimize_left", "maximize_left"):
        for count_by_size in strata_routes(g):
            assert count_by_size(g, spec) == oracle.counts_by_size.tolist()


@pytest.mark.parametrize("n", range(2, 12))
@settings(
    derandomize=True,
    database=None,
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mirrored_solves_match_oracle(n, data):
    g = data.draw(graphs(n))
    problem = data.draw(symmetric_problems(n))
    strata = brute_force_count(g, problem).counts_by_size.tolist()
    spec = ProblemSpec(problem, mode="count")
    for count_by_size in strata_routes(g):
        assert count_by_size(g, spec) == strata
    sizes = [t for t, c in enumerate(strata) if c]
    for solve in solve_routes(g):
        counted = solve(g, spec)
        # the join is mirrored; `solve` at n <= 8 enumerates and reports no join
        assert counted.stats.mirrored == (solve is solve_join or n > 8)
        assert counted.count == sum(strata)
        for mode, best in (("minimize_left", min), ("maximize_left", max)):
            assert solve(g, ProblemSpec(problem, mode=mode)).optimal_size == best(
                sizes, default=None
            )
        for t in range(1, n):
            for mode in ("count", "decide", "witness"):
                result = solve(g, ProblemSpec(problem, size_target=t, mode=mode))
                assert result.feasible == (strata[t] > 0)
                if mode == "count":
                    assert result.count == strata[t]
                if mode == "witness":
                    assert (result.witness is not None) == result.feasible
                if result.witness is not None:
                    assert validate_cut(g, problem, result.witness)[0]
                    assert len(result.witness.left) == t


@st.composite
def lower_bound_icc(draw, n):
    """Interval constraints with lower bounds only, on own and cross counts
    alike, often above a vertex's degree."""
    return IntervalConstrainedCut(
        tuple(
            VertexConstraints(*(Interval(draw(st.integers(0, n)), n) for _ in range(4)))
            for _ in range(n)
        )
    )


def relabel(g, problem, perm):
    """g and problem with vertex v renamed perm[v]; per-vertex constraints
    move with their vertices."""
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    if isinstance(problem, IntervalConstrainedCut):
        per_vertex = [None] * g.n
        for v, c in enumerate(problem.per_vertex):
            per_vertex[perm[v]] = c
        problem = IntervalConstrainedCut(tuple(per_vertex))
    return h, problem


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_relabelled_graphs_give_the_same_answers(data):
    g = data.draw(graphs())
    problem = data.draw(problems(g.n) | lower_bound_icc(g.n))
    h, moved = relabel(g, problem, data.draw(st.permutations(range(g.n))))
    strata = brute_force_count(g, problem).counts_by_size.tolist()
    sizes = [t for t, c in enumerate(strata) if c]
    for count_by_size in strata_routes(h):
        assert count_by_size(h, ProblemSpec(moved)) == strata
    targets = [None] + ([data.draw(st.integers(1, g.n - 1))] if g.n > 1 else [])
    for solve in solve_routes(h):
        assert solve(h, ProblemSpec(moved, mode="count")).count == sum(strata)
        for mode, best in (("minimize_left", min), ("maximize_left", max)):
            result = solve(h, ProblemSpec(moved, mode=mode))
            assert result.optimal_size == best(sizes, default=None)
        for t in targets:
            result = solve(h, ProblemSpec(moved, size_target=t, mode="witness"))
            assert result.feasible == bool(sum(strata) if t is None else strata[t])
            assert (result.witness is not None) == result.feasible
            if result.witness is not None:
                assert validate_cut(h, moved, result.witness)[0]
                assert t is None or len(result.witness.left) == t
