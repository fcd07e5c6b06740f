import inspect
import itertools
import random
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from splitcut import (
    AlphaBetaDomination,
    Cut,
    DCut,
    DominanceIndex,
    Graph,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    ProblemSpec,
    ResourceLimitError,
    SolverOptions,
    SolveStats,
    brute_force_count,
    build_index,
    construct_witness,
    count_by_size,
    count_solutions,
    naive_pair_join,
    optimize_size,
    random_graph,
    solve,
    solve_with_size,
    split_halves,
    validate_cut,
    VertexConstraints,
    VertexSet,
)
from splitcut import dominance, encoding, oracle, solver
from splitcut.encoding import build_join_inputs, column_plan
from splitcut.solver import _extract_witness, _join_rows, _memory_estimate

from conftest import edgeless_graph, path_graph
from helpers import enumerate_half, full_join_inputs, random_problem


class TestNamedInstances:
    def test_p4_internal_count(self, p4):
        spec = ProblemSpec(InternalPartition(), mode="count")
        assert solve(p4, spec).count == 2

    def test_p4_internal_witness_has_empty_half_side(self, p4):
        # both feasible cuts put one half entirely on one side, so the join
        # must pair an empty or full half-subset with a proper one
        feasible = {0b0011, 0b1100}
        brute = brute_force_count(p4, InternalPartition(), materialize=True)
        assert {c.left.mask for c in brute.cuts} == feasible
        for mask in feasible:
            s, s2 = mask & 0b11, mask >> 2
            assert s in (0, 0b11) and s2 in (0, 0b11)
        spec = ProblemSpec(InternalPartition())
        assert naive_pair_join(p4, spec) == count_solutions(p4, spec) == 2
        assert construct_witness(p4, spec).left.mask in feasible

    def test_c4_dcut_decide(self, c4):
        assert solve(c4, ProblemSpec(DCut(1))).feasible

    def test_k4_dcut_decide(self, k4):
        result = solve(k4, ProblemSpec(DCut(1)))
        assert not result.feasible
        assert result.count == 0

    def test_counts(self, c4, k3):
        edgeless = ProblemSpec(InternalPartition())
        abdom = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
        assert count_solutions(c4, ProblemSpec(DCut(1))) == 4
        assert count_solutions(edgeless_graph(4), edgeless) == 14
        assert count_solutions(k3, abdom) == 3


    def test_c4_dcut_join_stats(self, c4):
        stats = solve(c4, ProblemSpec(DCut(1))).stats
        # every bisection of the 4-cycle cuts two edges, so the search keeps
        # the index split {0, 1} | {2, 3}
        assert stats.cut_edges == 2
        # the cross-count cap 1 binds below each degree 2: two columns a
        # vertex and the two properness columns
        assert stats.dim == 10
        # d-cut is symmetric, so the join is mirrored: vertex 3 stays on the
        # right, and the data side keeps the 2 of its 4 rows without it
        assert stats.mirrored
        assert stats.stored == 2
        # with vertex 3 in R', its low column (I_R = [0, 1]) and the high
        # columns of vertices 0 and 2, which have no neighbour in S' then,
        # hold for every pair; with the whole-half row gone the second
        # properness column holds too: the drop of trivially satisfied
        # columns keeps 6
        assert stats.active_dim == 6
        # no vertex of a 2-vertex half has more than its cap of 1 placed
        # neighbour, so the first half keeps all 1 + 2 + 4 rows of its
        # levels and the second 1 + 2 + 2
        assert stats.generated == 12

    def test_two_edges_internal_join_stats(self, two_edges):
        # each vertex has an edge, so both own-side lower bounds bind, next
        # to the two properness columns; the lower bound 1 caps each cross
        # count at 0, so a half keeps only the rows with both ends of its
        # edge on one side: 2 queries, and 1 data row, since internal
        # partition is symmetric and vertex 3 stays on the right.  Every
        # column but the first properness one then holds for every pair.
        # The index split cuts no edge, so the search keeps it.
        result = solve(two_edges, ProblemSpec(InternalPartition(), mode="witness"))
        assert result.stats == SolveStats(
            stored=1,
            queries=2,
            dim=10,
            active_dim=1,
            generated=12,
            mirrored=True,
            cut_edges=0,
            time_ms=result.stats.time_ms,
        )


class TestWitness:
    def test_c4_witness_is_valid(self, c4):
        feasible = {c.left.mask for c in brute_force_count(c4, DCut(1), materialize=True).cuts}
        w = construct_witness(c4, ProblemSpec(DCut(1)))
        assert w is not None
        assert validate_cut(c4, DCut(1), w)[0]
        assert w.left.mask in feasible

    def test_k4_no_witness(self, k4):
        assert construct_witness(k4, ProblemSpec(DCut(1))) is None

    def test_two_edges_witness(self, two_edges):
        w = construct_witness(two_edges, ProblemSpec(InternalPartition()))
        assert w.left.mask in (0b0011, 0b1100)

    def test_witness_soundness_random(self, rng):
        for _ in range(30):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            spec = ProblemSpec(problem, mode="witness")
            expected = brute_force_count(g, problem).count
            result = solve(g, spec)
            assert result.feasible == (expected > 0)
            assert (result.witness is not None) == result.feasible
            if result.witness is not None:
                assert result.witness.proper
                assert validate_cut(g, problem, result.witness)[0]


    def test_pairjoin_witness(self, rng):
        # the join's witness exists exactly when the pairwise scan of the
        # same join inputs finds a match
        for _ in range(15):
            n = rng.randint(4, 11)
            g = random_graph(n, 0.4, rng)
            problem = random_problem(rng, n)
            result = construct_witness(g, ProblemSpec(problem))
            assert (result is not None) == (naive_pair_join(g, problem) > 0)
            if result is not None:
                assert validate_cut(g, problem, result)[0]


class TestEngineEquivalence:
    def test_all_routes_agree(self, rng):
        # the solve route, the pair-join oracle and brute force give one
        # count
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            spec = ProblemSpec(random_problem(rng, n), mode="count")
            counts = {
                solve(g, spec).count,
                naive_pair_join(g, spec),
                brute_force_count(g, spec).count,
            }
            assert len(counts) == 1

    def test_no_single_value_options(self):
        # block and chunk sizes, pruning and the route are fixed, so neither
        # the index nor the solver options take them: the options are caps
        for f in (build_index, DominanceIndex):
            assert list(inspect.signature(f).parameters) == ["points", "labels"]
        assert [f.name for f in fields(SolverOptions)] == ["memory_budget_mb"]
        assert not hasattr(dominance, "ENGINES")

    def test_joins_at_every_n(self, rng):
        # solve joins the halves from one vertex up: its stats are those of
        # the join inputs the solver builds, and its count is brute force's
        spec = ProblemSpec(DCut(1), mode="count")
        for n in range(1, 12):
            g = random_graph(n, 0.5, rng)
            result = solve(g, spec)
            assert result.count == brute_force_count(g, spec).count
            _, _, inputs = _solver_join(g, DCut(1))
            stats = result.stats
            assert (stats.queries, stats.stored, stats.dim, stats.generated) == (
                len(inputs.query),
                len(inputs.data),
                inputs.dim,
                inputs.generated,
            )
            assert stats.queries > 0 and stats.mirrored
            assert stats.cut_edges == solver._low_cut_split(g)[2]


class TestSizeModes:
    def test_k3_abdom_sizes(self, k3):
        spec = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
        assert solve_with_size(k3, spec, 1).count == 3
        assert solve_with_size(k3, spec, 2).count == 0

    def test_edgeless_internal_t2(self):
        spec = ProblemSpec(InternalPartition())
        assert solve_with_size(edgeless_graph(4), spec, 2).count == 6

    def test_out_of_range(self, k3):
        with pytest.raises(ValueError):
            solve_with_size(k3, ProblemSpec(DCut(1)), 3)
        with pytest.raises(ValueError):
            solve_with_size(k3, ProblemSpec(DCut(1)), 0)

    def test_stratification(self, rng):
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            spec = ProblemSpec(problem, mode="count")
            by_size = sum(solve_with_size(g, spec, t).count for t in range(1, n))
            assert by_size == count_solutions(g, spec)

    def test_every_counted_mode_keeps_the_target(self, rng):
        # a min/max spec used to ignore t and return the optimal size of
        # the whole instance; like decide, it counts stratum t
        for _ in range(8):
            n = rng.randint(2, 10)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            spec = ProblemSpec(random_problem(rng, n))
            strata = count_by_size(g, spec)
            for mode in ("decide", "minimize_left", "maximize_left"):
                for t in range(1, n):
                    result = solve_with_size(g, replace(spec, mode=mode), t)
                    assert result.count == strata[t]
                    assert result.feasible == (result.count > 0)

    def test_size_witness(self, rng):
        g = random_graph(9, 0.3, rng)
        spec = ProblemSpec(InternalPartition(), mode="witness")
        for t in range(1, 9):
            result = solve(g, replace(spec, size_target=t))
            if result.witness is not None:
                assert len(result.witness.left) == t


class TestOptimize:
    def test_k3_abdom_maximize(self, k3):
        spec = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
        assert optimize_size(k3, spec, "maximize") == 1

    def test_k4_infeasible(self, k4):
        assert optimize_size(k4, ProblemSpec(DCut(1)), "minimize") is None

    def test_edgeless_internal_maximize(self):
        g = edgeless_graph(4)
        assert optimize_size(g, ProblemSpec(InternalPartition()), "maximize") == 3
        assert optimize_size(g, ProblemSpec(InternalPartition()), "minimize") == 1

    def test_direction_validated(self, k3):
        with pytest.raises(ValueError):
            optimize_size(k3, ProblemSpec(DCut(1)), "sideways")

    def test_matches_brute_extremes(self, rng):
        for _ in range(12):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            res = brute_force_count(g, problem)
            spec = ProblemSpec(problem)
            assert optimize_size(g, spec, "minimize") == res.min_left
            assert optimize_size(g, spec, "maximize") == res.max_left

    def test_strata_match_brute(self, rng):
        # the strata of the min/max join are the oracle's, size by size
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            expected = brute_force_count(g, problem).counts_by_size.tolist()
            spec = ProblemSpec(problem, size_target=n // 2, mode="witness")
            assert count_by_size(g, spec) == expected

    def test_one_join_per_request(self, monkeypatch, rng):
        # min/max read the strata of the same join a count runs: one
        # encoding per request and the same rows and columns
        calls = []
        real = solver.build_join_inputs

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "build_join_inputs", counting)
        for _ in range(10):
            n = rng.randint(4, 12)
            g = random_graph(n, rng.choice([0.2, 0.5]), rng)
            problem = random_problem(rng, n)
            counted = solve(g, ProblemSpec(problem, mode="count")).stats
            for mode in ("minimize_left", "maximize_left"):
                calls.clear()
                stats = solve(g, ProblemSpec(problem, mode=mode)).stats
                assert len(calls) == 1
                assert (
                    stats.stored, stats.queries, stats.dim, stats.active_dim, stats.generated
                ) == (
                    counted.stored,
                    counted.queries,
                    counted.dim,
                    counted.active_dim,
                    counted.generated,
                )

    def test_one_column_plan_per_solve(self, monkeypatch, rng):
        # the capacity check and the encoder share one plan
        calls = []
        real = encoding.column_plan

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(encoding, "column_plan", counting)
        monkeypatch.setattr(solver, "column_plan", counting)
        modes = ("decide", "count", "witness", "minimize_left", "maximize_left")
        for _ in range(5):
            n = rng.randint(9, 14)
            g = random_graph(n, rng.choice([0.2, 0.5]), rng)
            problem = random_problem(rng, n)
            for mode, size in itertools.product(modes, (None, n // 2)):
                calls.clear()
                solve(g, ProblemSpec(problem, size_target=size, mode=mode))
                assert len(calls) == 1

    def test_mode_via_solve(self, k3):
        spec = ProblemSpec(
            AlphaBetaDomination(Interval(0, 0), Interval(0, 3)),
            mode="maximize_left",
        )
        result = solve(k3, spec)
        assert result.feasible and result.optimal_size == 1


class TestHeavyPruning:
    def test_tight_caps_stay_exact(self, rng):
        # all-upper-bounded constraints make the prune drop most rows; the
        # count must not move
        from splitcut import Interval, IntervalConstrainedCut, VertexConstraints

        for _ in range(10):
            n = rng.randint(6, 12)
            g = random_graph(n, 0.6, rng)
            cons = tuple(
                VertexConstraints(
                    *(Interval(0, rng.randint(0, 2)) for _ in range(4))
                )
                for _ in range(n)
            )
            problem = IntervalConstrainedCut(cons)
            spec = ProblemSpec(problem, mode="count")
            pruned = solve(g, spec)
            assert pruned.count == brute_force_count(g, problem).count
            _, _, full_data, _ = full_join_inputs(g, problem, prune=False)
            assert pruned.stats.stored <= len(full_data)


class TestResultInvariants:
    def test_feasible_count_witness_agree(self, rng):
        for _ in range(20):
            n = rng.randint(1, 11)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            counted = solve(g, ProblemSpec(problem, mode="count"))
            witnessed = solve(g, ProblemSpec(problem, mode="witness"))
            assert counted.feasible == (counted.count > 0)
            assert witnessed.feasible == counted.feasible
            assert (witnessed.witness is not None) == witnessed.feasible

    def test_one_count_contract(self, rng):
        # at every n a decide or witness carries no count when feasible and
        # 0 when infeasible, and the witness is valid, the same on a second
        # solve, and the one a pairwise scan of the solver's join inputs
        # picks; small and large n each see feasible and infeasible cases
        seen = set()
        for n in range(2, 13):
            g = random_graph(n, 0.5, rng)
            for problem in (DCut(1), DCut(2), InternalPartition()):
                for mode in ("decide", "witness"):
                    out = solve(g, ProblemSpec(problem, mode=mode))
                    assert out.count == (None if out.feasible else 0)
                    seen.add((n <= 8, out.feasible))
                # `out` holds the witness solve
                assert out.witness == _witness(g, problem)
                assert out.witness == construct_witness(g, ProblemSpec(problem))
                if out.witness is not None:
                    assert validate_cut(g, problem, out.witness)[0]
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_stats_populated(self, rng):
        g = random_graph(11, 0.5, rng)
        result = solve(g, ProblemSpec(DCut(2), mode="count"))
        assert result.stats.queries > 0 or result.stats.stored >= 0
        assert result.stats.time_ms > 0

    def test_tiny_graphs(self):
        # n in {1, 2, 3}: one half has at most one vertex, so the join pairs
        # empty and full half-subsets only
        for n in (1, 2, 3):
            g = edgeless_graph(n)
            expected = (1 << n) - 2
            spec = ProblemSpec(InternalPartition(), mode="count")
            assert solve(g, spec).count == expected
            assert naive_pair_join(g, spec) == expected


# the benchmark's abdom family: no left vertex may have a left neighbour,
# and no right vertex more than 4
ABDOM = AlphaBetaDomination(Interval(0, 0), Interval(0, 4))


def loose_icc(n, p):
    """The interval [1, deg(v) - 1] on every count of every vertex of
    `random_graph(n, p, Random(1000 + n))`: all 2n columns bind, and no
    subset of a half breaks a cap unless a vertex has all its neighbours in
    its half, on one side, so pruning keeps most rows."""
    g = random_graph(n, p, random.Random(1000 + n))
    return IntervalConstrainedCut(
        tuple(VertexConstraints(*[Interval(1, g.degree(v) - 1)] * 4) for v in range(n))
    )


def lopsided_icc(n, p):
    """I_L = [0, 2] and I_R = [deg(v) - 2, deg(v)] for every vertex of
    `random_graph(n, p, Random(1000 + n))`: both columns of a vertex of
    degree at least 3 bind, and the ends of its two sides differ by
    deg(v) - 2, so its own half's column spans nearly 2 deg(v) values."""
    g = random_graph(n, p, random.Random(1000 + n))
    full = Interval(0, n)
    return IntervalConstrainedCut(
        tuple(
            VertexConstraints(Interval(0, 2), full, full, Interval(max(g.degree(v) - 2, 0), n))
            for v in range(n)
        )
    )


class TestCaps:
    def test_solver_cap(self):
        # the join's masks are 64 bits wide: 65 vertices are refused before
        # any row is built, under the default budget and a huge one
        g = Graph.from_edges(65, [(v, v + 1) for v in range(64)])
        specs = [
            ProblemSpec(DCut(1)),
            ProblemSpec(InternalPartition(), mode="count"),
            ProblemSpec(InternalPartition(), size_target=30, mode="witness"),
        ]
        with mock.patch.object(solver, "build_join_inputs", side_effect=AssertionError):
            for opts in (SolverOptions(), SolverOptions(memory_budget_mb=1 << 40)):
                for spec in specs:
                    with pytest.raises(ResourceLimitError, match="n=65 exceeds the solver cap 64"):
                        solve(g, spec, opts)
                with pytest.raises(ResourceLimitError, match="n=65 exceeds the solver cap 64"):
                    count_by_size(g, specs[0], opts)

    def test_memory_budget(self, rng):
        g = random_graph(14, 0.5, rng)
        with pytest.raises(ResourceLimitError):
            solve(
                g,
                ProblemSpec(DCut(1)),
                SolverOptions(memory_budget_mb=0),
            )
        # a count is estimated at 4,564,576 B (4.35 MiB) and a count by
        # size at 4.37 MiB; the message rounds up, so it never reads "4 MiB
        # exceeds the budget 4 MiB", and both are refused before the split
        # search or the encoder runs
        g = random_graph(14, 0.5, random.Random(14))
        spec = ProblemSpec(DCut(1), mode="count")
        est = solver._memory_estimate(g, spec)
        budget = -(-est >> 20)
        assert budget == 5
        tight = SolverOptions(memory_budget_mb=budget - 1)
        message = "estimated 5 MiB exceeds the budget 4 MiB"
        with (
            mock.patch.object(solver, "_low_cut_split", side_effect=AssertionError),
            mock.patch.object(solver, "build_join_inputs", side_effect=AssertionError),
        ):
            with pytest.raises(ResourceLimitError, match=message):
                solve(g, spec, tight)
            with pytest.raises(ResourceLimitError, match=message):
                count_by_size(g, spec, tight)
        enough = SolverOptions(memory_budget_mb=budget)
        assert solve(g, spec, enough).count == count_solutions(g, spec)

    def test_pairjoin_guard(self, rng):
        g = random_graph(12, 0.5, rng)
        with pytest.raises(ResourceLimitError):
            naive_pair_join(g, ProblemSpec(DCut(1)), max_n=11)
        assert naive_pair_join(g, ProblemSpec(DCut(1)), max_n=12) == count_solutions(
            g, ProblemSpec(DCut(1))
        )

    @pytest.mark.parametrize(
        "problem, n, p, mode, half",
        [
            (InternalPartition(), 20, 0.3, "count", False),
            (InternalPartition(), 24, 0.3, "count", False),
            (DCut(2), 26, 0.1, "count", False),
            (InternalPartition(), 20, 0.3, "minimize_left", False),
            (InternalPartition(), 24, 0.3, "minimize_left", False),
            (InternalPartition(), 20, 0.3, "count", True),
            (InternalPartition(), 24, 0.3, "count", True),
            (DCut(1), 26, 0.25, "count", False),
            (ABDOM, 26, 0.3, "count", False),
            (loose_icc(24, 0.3), 24, 0.3, "count", False),
            # every column binds (minimum degree 3), with the widest spans
            (lopsided_icc(24, 0.25), 24, 0.25, "count", False),
            (AlphaBetaDomination(Interval(2, 5), Interval(2, 5)), 26, 0.3, "count", False),
            (InternalPartition(), 1, 0.5, "count", False),
            (DCut(1), 2, 0.5, "witness", False),
            (InternalPartition(), 8, 0.5, "count", True),
        ],
        # each id names the bitset index, whose workspace the estimate covers
        ids=[
            "internal-20-bitset",
            "internal-24-bitset",
            "dcut2-26-bitset",
            "internal-20-minimize-bitset",
            "internal-24-minimize-bitset",
            "internal-20-half-bitset",
            "internal-24-half-bitset",
            "dcut1-26-pruned-bitset",
            "abdom-26-pruned-bitset",
            "icc-24-loose-bitset",
            "icc-24-lopsided-bitset",
            "abdom-26-two-sided-bitset",
            "internal-1-bitset",
            "dcut1-2-witness-bitset",
            "internal-8-half-bitset",
        ],
    )
    def test_memory_estimate_bounds_peak(self, problem, n, p, mode, half):
        g = random_graph(n, p, random.Random(1000 + n))
        spec = ProblemSpec(problem, size_target=n // 2 if half else None, mode=mode)
        tracemalloc.start()
        try:
            solve(g, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _memory_estimate(g, spec)

    @pytest.mark.parametrize(
        "problem, p",
        [(DCut(2), 0.1), (DCut(1), 0.25), (ABDOM, 0.3)],
        ids=["dcut2", "dcut1", "abdom"],
    )
    def test_pruned_levels_fit_the_half(self, problem, p):
        # the levels up to the first check are built at once, as one range
        # of 2^f masks that stands for levels of 2, 4, ..., 2^f rows, and
        # each later level concatenates the masks of its R and S children;
        # no level may hold more rows than the half has subsets, and
        # `generated` is the sum of the level sizes, the empty row included
        g = random_graph(26, p, random.Random(1026))
        ub = column_plan(g, problem).upper_bounds()
        for side in split_halves(g):
            with (
                mock.patch.object(np, "arange", wraps=np.arange) as arange,
                mock.patch.object(np, "concatenate", wraps=np.concatenate) as concat,
            ):
                enum = enumerate_half(g, side, ub)
            (first,) = [
                call.args[0]
                for call in arange.call_args_list
                if call.kwargs.get("dtype") == np.uint32
            ]
            levels = [1 << j for j in range(1, first.bit_length())]
            levels += [
                sum(map(len, call.args[0]))
                for call in concat.call_args_list
                if call.args[0][0].dtype == np.uint32
            ]
            assert len(levels) == len(side) and max(levels) <= 1 << len(side)
            assert enum.generated == 1 + sum(levels)
            assert len(enum.masks) <= 1 << len(side)

    def test_brute_guard(self, rng):
        # solve and count_by_size join at every n, small ones included, and
        # never call brute force, whatever the oracle's own guard allows
        modes = ("decide", "count", "witness", "minimize_left", "maximize_left")
        assert not hasattr(solver, "oracle")
        with mock.patch.object(oracle, "brute_force_count", side_effect=AssertionError):
            for n in (1, 2, 8, 9, 12):
                g = random_graph(n, 0.5, rng)
                for mode in modes:
                    solve(g, ProblemSpec(DCut(1), mode=mode))
                count_by_size(g, ProblemSpec(DCut(1)))


class TestAllSubsetJoin:
    def test_disjoint_cover(self):
        # the query x data pairs name each of the 2^n left-side masks once,
        # including n = 1 where the first half is empty
        for n in range(1, 11):
            g = edgeless_graph(n)
            inputs = build_join_inputs(g, InternalPartition())
            ka = n // 2
            combined = (
                inputs.query_masks[:, None] | (inputs.data_masks[None, :] << np.uint64(ka))
            ).ravel()
            assert len(combined) == 1 << n
            assert len(np.unique(combined)) == 1 << n

    def test_edgeless_drops_both_improper_pairs(self):
        # every bipartition of an edgeless graph is internal, so no column
        # binds and only the two properness columns fail (∅, ∅), the first
        # rows, and (V_A, V_B), the last rows
        spec = ProblemSpec(InternalPartition(), mode="count")
        for n in range(1, 11):
            g = edgeless_graph(n)
            inputs = build_join_inputs(g, InternalPartition())
            assert inputs.dim == 2
            for qi, di in ((0, 0), (-1, -1)):
                assert not np.all(inputs.data[di] <= inputs.query[qi])
            assert count_solutions(g, spec) == naive_pair_join(g, spec) == (1 << n) - 2

    def test_capacity_rows_match_unpruned_inputs(self, rng):
        for n in range(2, 13):
            g = random_graph(n, 0.5, rng)
            query, _, data, _ = full_join_inputs(g, DCut(1), prune=False)
            assert _join_rows(n) == len(query) + len(data)


def _zero_bounds_icc(n: int) -> IntervalConstrainedCut:
    """Every own and cross count capped at 0: a half with an internal edge
    has no subset that survives pruning."""
    zero = Interval(0, 0)
    return IntervalConstrainedCut(
        tuple(VertexConstraints(zero, zero, zero, zero) for _ in range(n))
    )


def _full_join_counts(inputs, n, size_target=None) -> np.ndarray:
    """Matches per query row by a pairwise scan over every column, keeping
    only pairs with |S| + |S'| = size_target when one is given.  A mirrored
    join counts each pair again for its reverse: a second time, or with a
    target when |S| + |S'| = n - size_target."""
    hits = np.all(inputs.data[None, :, :] <= inputs.query[:, None, :], axis=2)
    if size_target is None:
        return hits.sum(axis=1) * (2 if inputs.mirrored else 1)
    qsizes = np.bitwise_count(inputs.query_masks).astype(int)
    dsizes = np.bitwise_count(inputs.data_masks).astype(int)
    sizes = qsizes[:, None] + dsizes[None, :]
    counts = (hits & (sizes == size_target)).sum(axis=1)
    if inputs.mirrored:
        counts += (hits & (sizes == n - size_target)).sum(axis=1)
    return counts


def _solver_join(g, problem):
    """The relabelled graph, its order and the join inputs the solver
    builds: on the low-cut relabelling of g, mirrored for a symmetric
    problem."""
    h, order, _ = solver._low_cut_split(g)
    plan = column_plan(g, problem).permuted(order)
    return h, order, build_join_inputs(h, plan, mirror=plan.symmetric)


def _witness(g, problem, size_target=None):
    """The witness of the first query row with a proper match in a pairwise
    scan of the solver's join inputs, in the labels of g, or None."""
    h, order, inputs = _solver_join(g, problem)
    counts = _full_join_counts(inputs, g.n, size_target)
    if not counts.any():
        return None
    cut = _extract_witness(h, inputs, int(np.argmax(counts > 0)), size_target)
    return Cut.from_left(VertexSet.of([int(order[v]) for v in cut.left], g.n))


class TestTrivialColumns:
    """Columns with max(data) <= min(query) are dropped before the join."""

    def cases(self, rng):
        for _ in range(30):
            n = rng.randint(2, 10)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            spec = ProblemSpec(random_problem(rng, n), size_target=rng.choice([None, n // 2]))
            yield g, spec, False
        # pruning empties the query side (an edge inside the first half), the
        # data side (an edge inside the second), or both; the index split
        # cuts no edge, so the solver keeps it
        for edges in ([(0, 1)], [(2, 3)], [(0, 1), (2, 3)]):
            g = Graph.from_edges(4, edges)
            yield g, ProblemSpec(_zero_bounds_icc(4)), True

    def test_drop_changes_no_answer(self, rng):
        for g, spec, emptied in self.cases(rng):
            _, _, inputs = _solver_join(g, spec.problem)
            counts = _full_join_counts(inputs, g.n, spec.size_target)
            count = int(counts.sum())
            result = solve(g, replace(spec, mode="witness"))
            assert result.stats.dim == inputs.dim
            assert result.stats.active_dim <= inputs.dim
            assert result.stats.mirrored == inputs.mirrored
            assert result.feasible == (count > 0)
            assert count_solutions(g, spec) == naive_pair_join(g, spec) == count
            if count:
                assert result.witness == _witness(g, spec.problem, spec.size_target)
                assert validate_cut(g, spec.problem, result.witness)[0]
            empty = not (len(inputs.query) and len(inputs.data))
            if empty:
                assert result.stats.active_dim == inputs.dim
            # lower bounds empty sides of some random cases too
            assert empty or not emptied

    def test_trivial_columns_are_dropped(self):
        # an edgeless graph leaves no binding column for internal partition,
        # so only the two properness columns are encoded; the mirrored join
        # has no whole-half data row, so the second one holds and goes
        g = edgeless_graph(8)
        result = solve(g, ProblemSpec(InternalPartition(), mode="count"))
        assert result.stats.mirrored
        assert (result.stats.dim, result.stats.active_dim) == (2, 1)
        assert result.count == (1 << 8) - 2
        # abdom plans the high column of the 11 vertices with an edge, where
        # U_L = 0 < deg(v).  Pruning leaves columns beyond the plan that
        # every row meets; it drops the whole half from both sides, so the
        # second properness column goes too.  The low-cut split commits
        # more of each count inside its half, which leaves more such
        # columns: 4 of 13 stay
        g = random_graph(12, 0.3, random.Random(1012))
        result = solve(g, ProblemSpec(ABDOM, mode="count"))
        assert not result.stats.mirrored
        assert (result.stats.dim, result.stats.active_dim) == (13, 4)
        assert result.count == brute_force_count(g, ABDOM).count


class TestEarlyExit:
    """Decide and witness join the query rows one index chunk at a time and
    stop at the first chunk with a proper match."""

    @staticmethod
    def count_joins(monkeypatch) -> list[int]:
        rows = []
        real = DominanceIndex.batch_count

        def counting(self, queries):
            rows.append(len(queries))
            return real(self, queries)

        monkeypatch.setattr(DominanceIndex, "batch_count", counting)
        return rows

    def test_improper_match_is_no_match(self):
        # no proper cut of a connected graph is crossed by zero edges, but
        # the first query row, S = ∅, meets the binding columns of the data
        # row S' = ∅, and only the properness columns fail the pair
        g = path_graph(12)
        inputs = build_join_inputs(g, DCut(0))
        assert int(inputs.query_masks[0]) == int(inputs.data_masks[0]) == 0
        assert np.all(inputs.data[0, :-2] <= inputs.query[0, :-2])
        assert not np.all(inputs.data[0] <= inputs.query[0])
        assert naive_pair_join(g, DCut(0)) == 0
        for mode in ("decide", "witness"):
            result = solve(g, ProblemSpec(DCut(0), mode=mode))
            assert not result.feasible
            assert result.witness is None and result.count == 0

    def test_stops_at_first_matching_chunk(self, monkeypatch):
        # one query row per chunk: the join runs up to the first row with a
        # proper match, whose witness is the one a pairwise scan of the
        # solver's join inputs (mirrored when the problem is symmetric) picks
        monkeypatch.setattr(dominance, "_CHUNK_WORDS", 1)
        monkeypatch.setattr(dominance, "_CHUNK_ELEMS", 1)
        rows = self.count_joins(monkeypatch)
        rng = random.Random(61)
        late = 0
        for _ in range(40):
            n = rng.randint(6, 12)
            g = random_graph(n, rng.choice([0.3, 0.5]), rng)
            problem = random_problem(rng, n)
            spec = ProblemSpec(problem, size_target=rng.choice([None, n // 2]))
            _, _, inputs = _solver_join(g, problem)
            counts = _full_join_counts(inputs, n, spec.size_target)
            for mode in ("decide", "witness"):
                rows.clear()
                result = solve(g, replace(spec, mode=mode))
                assert result.feasible == bool(counts.any())
                if not counts.any():
                    assert rows == [1] * len(inputs.query)
                    assert result.witness is None
                    continue
                qi = int(np.argmax(counts > 0))
                assert rows == [1] * (qi + 1)
                if mode == "witness":
                    assert result.witness == _witness(g, problem, spec.size_target)
                    assert validate_cut(g, problem, result.witness)[0]
                    if spec.size_target is not None:
                        assert len(result.witness.left) == spec.size_target
            late += bool(counts.any()) and int(np.argmax(counts > 0)) > 0
        assert late >= 5


class TestMirroredJoin:
    """Symmetric problems join one cut of each reversed pair; the answers
    come from the reversed-pair rule."""

    def test_witnesses_take_the_reversal_path(self):
        # every mirrored data row keeps vertex n - 1 on the right, so a
        # witness with it on the left was found in stratum n - t and reversed
        rng = random.Random(71)
        reversed_witnesses = 0
        for _ in range(40):
            n = rng.randint(2, 12)
            g = random_graph(n, rng.choice([0.2, 0.5]), rng)
            problem = rng.choice([DCut(1), DCut(2), InternalPartition()])
            strata = brute_force_count(g, problem).counts_by_size
            for t in range(1, n):
                result = solve(g, ProblemSpec(problem, size_target=t, mode="witness"))
                assert result.stats.mirrored
                assert result.feasible == (strata[t] > 0)
                if result.witness is not None:
                    assert validate_cut(g, problem, result.witness)[0]
                    assert len(result.witness.left) == t
                    reversed_witnesses += n - 1 in result.witness.left
        assert reversed_witnesses >= 10

    def test_abdom_takes_the_full_join(self, rng):
        # abdom with alpha != beta is not symmetric: the solver joins every
        # data row the unmirrored build keeps
        for _ in range(20):
            n = rng.randint(9, 12)
            g = random_graph(n, 0.3, rng)
            problem = AlphaBetaDomination(Interval(0, 0), Interval(0, rng.randint(1, 4)))
            _, _, inputs = _solver_join(g, problem)
            result = solve(g, ProblemSpec(problem, mode="count"))
            assert not result.stats.mirrored
            assert (result.stats.stored, result.stats.queries) == (
                len(inputs.data),
                len(inputs.query),
            )
            assert result.stats.generated == inputs.generated
            assert result.count == brute_force_count(g, problem).count
            assert count_by_size(g, ProblemSpec(problem)) == (
                brute_force_count(g, problem).counts_by_size.tolist()
            )


def _cut_edges(g, left_mask):
    return sum((g.adj[v] & ~left_mask).bit_count() for v in range(g.n) if left_mask >> v & 1)


class TestLowCutSplit:
    """The solver relabels the graph so that its index split is a bisection
    found by a greedy pair-swap search from the index split."""

    def test_never_cuts_more_than_the_index_split(self, rng):
        for _ in range(60):
            n = rng.randint(1, 30)
            g = random_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
            h, order, cut = solver._low_cut_split(g)
            first = (1 << (n // 2)) - 1
            assert cut == _cut_edges(h, first) <= _cut_edges(g, first)
            # h is g with vertex order[i] renamed i, and each half ascends
            assert sorted(order.tolist()) == list(range(n))
            assert h == Graph(n, h.adj)
            place = np.argsort(order)
            assert set(h.edges()) == {tuple(sorted((place[u], place[v]))) for u, v in g.edges()}
            for half in (order[: n // 2], order[n // 2 :]):
                assert np.all(np.diff(half) > 0)
            # no swap of a pair across the split removes a cut edge
            for a in range(n // 2):
                for b in range(n // 2, n):
                    assert _cut_edges(h, first ^ (1 << a) ^ (1 << b)) >= cut

    def test_ties_go_to_the_smallest_pair(self):
        # on the path 0-1-2-3-4-5 the index split {0, 1, 2} cuts one edge
        # and stays.  On 0-3, 1-4, 2-5 it cuts all three; a swap of 0 and 3
        # removes none, and every other swap removes two, so the smallest
        # such pair, (0, 4), goes first and leaves one, which no swap lowers
        g = path_graph(6)
        h, order, cut = solver._low_cut_split(g)
        assert (h, order.tolist(), cut) == (g, list(range(6)), 1)
        g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
        h, order, cut = solver._low_cut_split(g)
        assert cut == 1
        assert order.tolist() == [1, 2, 4, 0, 3, 5]

    def test_same_input_same_output(self, rng):
        for _ in range(20):
            n = rng.randint(9, 16)
            g = random_graph(n, rng.choice([0.2, 0.5]), rng)
            problem = random_problem(rng, n)
            for mode in ("count", "witness", "minimize_left"):
                spec = ProblemSpec(problem, size_target=None, mode=mode)
                first, second = solve(g, spec), solve(g, spec)
                first.stats.time_ms = second.stats.time_ms = 0.0
                assert first == second
                assert first.stats.cut_edges == solver._low_cut_split(g)[2]

