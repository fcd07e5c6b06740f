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
    brute_force_count,
    build_index,
    construct_witness,
    count_by_size,
    count_solutions,
    naive_pair_join,
    optimize_size,
    random_graph,
    solve,
    solve_vector_box_sum,
    solve_with_size,
    split_halves,
    validate_cut,
    VertexConstraints,
    VertexSet,
)
from splitcut import dominance, encoding, solver
from splitcut.encoding import build_join_inputs, column_plan
from splitcut.solver import _extract_witness, _join_rows, _memory_estimate

from conftest import edgeless_graph, path_graph
from helpers import enumerate_half, full_join_inputs, random_problem

SPLIT = SolverOptions(engine="splitlist")
NAIVE = SolverOptions(engine="splitlist", index_engine="naive")


class TestNamedInstances:
    def test_p4_internal_count(self, p4):
        spec = ProblemSpec(InternalPartition(), mode="count")
        assert solve(p4, spec, SPLIT).count == 2

    def test_p4_internal_witness_has_empty_half_side(self, p4):
        # both feasible cuts put one half entirely on one side, so the join
        # must pair an empty or full half-subset with a proper one
        feasible = {0b0011, 0b1100}
        brute = brute_force_count(p4, InternalPartition(), materialize=True)
        assert {c.left.mask for c in brute.cuts} == feasible
        for mask in feasible:
            s, s2 = mask & 0b11, mask >> 2
            assert s in (0, 0b11) and s2 in (0, 0b11)
        for opts in (SPLIT, NAIVE):
            assert solve(p4, ProblemSpec(InternalPartition(), mode="count"), opts).count == 2
            witness = construct_witness(p4, ProblemSpec(InternalPartition()), opts)
            assert witness.left.mask in feasible

    def test_c4_dcut_decide(self, c4):
        assert solve(c4, ProblemSpec(DCut(1)), SPLIT).feasible

    def test_k4_dcut_decide(self, k4):
        result = solve(k4, ProblemSpec(DCut(1)), SPLIT)
        assert not result.feasible
        assert result.count == 0

    def test_counts(self, c4, k3):
        assert count_solutions(c4, ProblemSpec(DCut(1)), SPLIT) == 4
        assert count_solutions(edgeless_graph(4), ProblemSpec(InternalPartition()), SPLIT) == 14
        abdom = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
        assert count_solutions(k3, abdom, SPLIT) == 3


class TestWitness:
    def test_c4_witness_is_valid(self, c4):
        w = construct_witness(c4, ProblemSpec(DCut(1)), SPLIT)
        assert w is not None
        assert validate_cut(c4, DCut(1), w)[0]
        feasible = {c.left.mask for c in brute_force_count(c4, DCut(1), materialize=True).cuts}
        assert w.left.mask in feasible

    def test_k4_no_witness(self, k4):
        assert construct_witness(k4, ProblemSpec(DCut(1)), SPLIT) is None

    def test_two_edges_witness(self, two_edges):
        w = construct_witness(two_edges, ProblemSpec(InternalPartition()), SPLIT)
        assert w.left.mask in (0b0011, 0b1100)

    def test_witness_soundness_random(self, rng):
        for _ in range(30):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            spec = ProblemSpec(problem, mode="witness")
            result = solve(g, spec, SPLIT)
            expected = brute_force_count(g, problem).count
            assert result.feasible == (expected > 0)
            assert (result.witness is not None) == result.feasible
            if result.witness is not None:
                assert result.witness.proper
                assert validate_cut(g, problem, result.witness)[0]

    def test_pairjoin_witness(self, rng):
        # the naive index, a pairwise scan of the join, extracts witnesses
        opts = NAIVE
        for _ in range(15):
            n = rng.randint(4, 11)
            g = random_graph(n, 0.4, rng)
            problem = random_problem(rng, n)
            spec = ProblemSpec(problem, mode="witness")
            result = solve(g, spec, opts)
            assert result.feasible == (brute_force_count(g, problem).count > 0)
            if result.witness is not None:
                assert validate_cut(g, problem, result.witness)[0]


class TestEngineEquivalence:
    def test_all_routes_agree(self, rng):
        option_sets = [
            SolverOptions(),  # auto
            SolverOptions(engine="splitlist"),
            SolverOptions(engine="brute"),
            SolverOptions(engine="splitlist", index_engine="naive"),
        ]
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            spec = ProblemSpec(random_problem(rng, n), mode="count")
            counts = {solve(g, spec, opts).count for opts in option_sets}
            assert len(counts) == 1

    def test_no_single_value_options(self):
        # block and chunk sizes and pruning are fixed, so neither the
        # index nor the solver options take them
        for f in (build_index, DominanceIndex):
            assert list(inspect.signature(f).parameters) == ["points", "engine", "labels"]
        assert [f.name for f in fields(SolverOptions)] == [
            "engine", "index_engine", "max_n", "brute_max_n", "memory_budget_mb"
        ]

    @pytest.mark.parametrize("value", ["bogus", "recursive"])
    @pytest.mark.parametrize("name", ["engine", "index_engine"])
    def test_unknown_engine_rejected(self, name, value):
        # checked when the options are built, before any route runs: brute
        # force at n=6, the join at n=12, and count_by_size
        with pytest.raises(ValueError, match="unknown"):
            SolverOptions(**{name: value})
        with pytest.raises(ValueError, match="unknown"):
            replace(NAIVE, **{name: value})
        spec = ProblemSpec(DCut(1))
        for n in (6, 12):
            g = random_graph(n, 0.5, random.Random(1))
            for run in (solve, count_by_size):
                with pytest.raises(ValueError, match="unknown"):
                    run(g, spec, SolverOptions(**{name: value}))

    def test_auto_delegates_small(self, rng):
        g = random_graph(6, 0.5, rng)
        spec = ProblemSpec(DCut(1), mode="count")
        auto = solve(g, spec, SolverOptions())
        assert auto.stats.stored == 0 and auto.stats.queries == 0
        forced = solve(g, spec, SolverOptions(engine="splitlist"))
        assert forced.stats.queries > 0
        assert auto.count == forced.count


class TestSizeModes:
    def test_k3_abdom_sizes(self, k3):
        spec = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
        assert solve_with_size(k3, spec, 1, SPLIT).count == 3
        assert solve_with_size(k3, spec, 2, SPLIT).count == 0

    def test_edgeless_internal_t2(self):
        spec = ProblemSpec(InternalPartition())
        assert solve_with_size(edgeless_graph(4), spec, 2, SPLIT).count == 6

    def test_out_of_range(self, k3):
        with pytest.raises(ValueError):
            solve_with_size(k3, ProblemSpec(DCut(1)), 3, SPLIT)
        with pytest.raises(ValueError):
            solve_with_size(k3, ProblemSpec(DCut(1)), 0, SPLIT)

    def test_stratification(self, rng):
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            spec = ProblemSpec(problem, mode="count")
            total = solve(g, spec, SPLIT).count
            by_size = sum(
                solve_with_size(g, spec, t, SPLIT).count for t in range(1, n)
            )
            assert by_size == total

    def test_size_witness(self, rng):
        g = random_graph(9, 0.3, rng)
        spec = ProblemSpec(InternalPartition(), mode="witness")
        for t in range(1, 9):
            result = solve(g, replace(spec, size_target=t), SPLIT)
            if result.witness is not None:
                assert len(result.witness.left) == t


class TestOptimize:
    def test_k3_abdom_maximize(self, k3):
        spec = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
        assert optimize_size(k3, spec, "maximize", SPLIT) == 1

    def test_k4_infeasible(self, k4):
        assert optimize_size(k4, ProblemSpec(DCut(1)), "minimize", SPLIT) is None

    def test_edgeless_internal_maximize(self):
        g = edgeless_graph(4)
        assert optimize_size(g, ProblemSpec(InternalPartition()), "maximize", SPLIT) == 3
        assert optimize_size(g, ProblemSpec(InternalPartition()), "minimize", SPLIT) == 1

    def test_direction_validated(self, k3):
        with pytest.raises(ValueError):
            optimize_size(k3, ProblemSpec(DCut(1)), "sideways", SPLIT)

    def test_matches_brute_extremes(self, rng):
        for _ in range(12):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            res = brute_force_count(g, problem)
            spec = ProblemSpec(problem)
            assert optimize_size(g, spec, "minimize", SPLIT) == res.min_left
            assert optimize_size(g, spec, "maximize", SPLIT) == res.max_left

    def test_strata_match_brute(self, rng):
        # the strata of the min/max join are the oracle's, size by size
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            expected = brute_force_count(g, problem).counts_by_size.tolist()
            spec = ProblemSpec(problem, size_target=n // 2, mode="witness")
            for opts in (SPLIT, SolverOptions(engine="brute"), NAIVE):
                assert count_by_size(g, spec, opts) == expected

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
            counted = solve(g, ProblemSpec(problem, mode="count"), SPLIT).stats
            for mode in ("minimize_left", "maximize_left"):
                calls.clear()
                stats = solve(g, ProblemSpec(problem, mode=mode), SPLIT).stats
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
                solve(g, ProblemSpec(problem, size_target=size, mode=mode), SPLIT)
                assert len(calls) == 1

    def test_mode_via_solve(self, k3):
        spec = ProblemSpec(
            AlphaBetaDomination(Interval(0, 0), Interval(0, 3)),
            mode="maximize_left",
        )
        result = solve(k3, spec, SPLIT)
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
            pruned = solve(g, spec, SPLIT)
            assert pruned.count == brute_force_count(g, problem).count
            _, _, full_data, _ = full_join_inputs(g, problem, prune=False)
            assert pruned.stats.stored <= len(full_data)


class TestResultInvariants:
    def test_feasible_count_witness_agree(self, rng):
        for _ in range(20):
            n = rng.randint(1, 11)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            counted = solve(g, ProblemSpec(problem, mode="count"), SPLIT)
            witnessed = solve(g, ProblemSpec(problem, mode="witness"), SPLIT)
            assert counted.feasible == (counted.count > 0)
            assert witnessed.feasible == counted.feasible
            assert (witnessed.witness is not None) == witnessed.feasible

    def test_stats_populated(self, rng):
        g = random_graph(11, 0.5, rng)
        result = solve(g, ProblemSpec(DCut(2), mode="count"), SPLIT)
        assert result.stats.queries > 0 or result.stats.stored >= 0
        assert result.stats.time_ms > 0

    def test_tiny_graphs(self):
        # n in {1, 2, 3}: one half has at most one vertex, so the join pairs
        # empty and full half-subsets only
        for n in (1, 2, 3):
            g = edgeless_graph(n)
            expected = (1 << n) - 2
            for opts in (SPLIT, SolverOptions(engine="brute"), NAIVE):
                assert solve(g, ProblemSpec(InternalPartition(), mode="count"), opts).count == expected


# the benchmark's abdom family: no left vertex may have a left neighbour,
# and no right vertex more than 4
ABDOM = AlphaBetaDomination(Interval(0, 0), Interval(0, 4))


def loose_icc(n, p):
    """The interval [1, deg(v) - 1] on every count of every vertex of
    `random_graph(n, p, Random(1000 + n))`: all 8n columns bind, and no
    subset of a half breaks a cap unless a vertex has all its neighbours in
    its half, on one side, so pruning keeps most rows."""
    g = random_graph(n, p, random.Random(1000 + n))
    return IntervalConstrainedCut(
        tuple(VertexConstraints(*[Interval(1, g.degree(v) - 1)] * 4) for v in range(n))
    )


class TestCaps:
    def test_solver_cap(self, rng):
        g = random_graph(12, 0.5, rng)
        with pytest.raises(ResourceLimitError):
            solve(g, ProblemSpec(DCut(1)), SolverOptions(engine="splitlist", max_n=11))

    def test_memory_budget(self, rng):
        g = random_graph(14, 0.5, rng)
        with pytest.raises(ResourceLimitError):
            solve(
                g,
                ProblemSpec(DCut(1)),
                SolverOptions(engine="splitlist", memory_budget_mb=0),
            )

    def test_pairjoin_guard(self, rng):
        g = random_graph(12, 0.5, rng)
        with pytest.raises(ResourceLimitError):
            naive_pair_join(g, ProblemSpec(DCut(1)), max_n=11)
        assert naive_pair_join(g, ProblemSpec(DCut(1)), max_n=12) == count_solutions(
            g, ProblemSpec(DCut(1)), SPLIT
        )

    @pytest.mark.parametrize("index_engine", ["bitset", "naive"])
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
        ],
        ids=[
            "internal-20",
            "internal-24",
            "dcut2-26",
            "internal-20-minimize",
            "internal-24-minimize",
            "internal-20-half",
            "internal-24-half",
            "dcut1-26-pruned",
            "abdom-26-pruned",
            "icc-24-loose",
        ],
    )
    def test_memory_estimate_bounds_peak(self, problem, n, p, mode, half, index_engine):
        g = random_graph(n, p, random.Random(1000 + n))
        spec = ProblemSpec(problem, size_target=n // 2 if half else None, mode=mode)
        opts = SolverOptions(engine="splitlist", index_engine=index_engine)
        tracemalloc.start()
        try:
            solve(g, spec, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _memory_estimate(g, spec, opts)

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
        g = random_graph(12, 0.5, rng)
        with pytest.raises(ResourceLimitError):
            solve(
                g,
                ProblemSpec(DCut(1)),
                SolverOptions(engine="brute", brute_max_n=11),
            )


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
            for opts in (SPLIT, NAIVE):
                assert solve(g, spec, opts).count == (1 << n) - 2

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

    @pytest.mark.parametrize("engine", ["splitlist"])
    @pytest.mark.parametrize("index_engine", ["bitset", "naive"])
    def test_drop_changes_no_answer(self, rng, engine, index_engine):
        opts = SolverOptions(engine=engine, index_engine=index_engine)
        for g, spec, emptied in self.cases(rng):
            _, _, inputs = _solver_join(g, spec.problem)
            counts = _full_join_counts(inputs, g.n, spec.size_target)
            count = int(counts.sum())
            result = solve(g, replace(spec, mode="witness"), opts)
            assert result.stats.dim == inputs.dim
            assert result.stats.active_dim <= inputs.dim
            assert result.stats.mirrored == inputs.mirrored
            assert result.feasible == (count > 0)
            assert solve(g, replace(spec, mode="count"), opts).count == count
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
        result = solve(g, ProblemSpec(InternalPartition(), mode="count"), SPLIT)
        assert result.stats.mirrored
        assert (result.stats.dim, result.stats.active_dim) == (2, 1)
        assert result.count == (1 << 8) - 2
        # pruning leaves abdom columns beyond the plan that every row meets;
        # it drops the whole half from both sides, so the second properness
        # column goes too.  The low-cut split commits more of each count
        # inside its half, which leaves more such columns: 5 of 14 stay
        g = random_graph(12, 0.3, random.Random(1012))
        result = solve(g, ProblemSpec(ABDOM, mode="count"), SPLIT)
        assert not result.stats.mirrored
        assert (result.stats.dim, result.stats.active_dim) == (14, 5)
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

    @pytest.mark.parametrize("index_engine", ["bitset", "naive"])
    def test_improper_match_is_no_match(self, index_engine):
        # no proper cut of a connected graph is crossed by zero edges, but
        # the first query row, S = ∅, meets the binding columns of the data
        # row S' = ∅, and only the properness columns fail the pair
        g = path_graph(12)
        inputs = build_join_inputs(g, DCut(0))
        assert int(inputs.query_masks[0]) == int(inputs.data_masks[0]) == 0
        assert np.all(inputs.data[0, :-2] <= inputs.query[0, :-2])
        assert not np.all(inputs.data[0] <= inputs.query[0])
        opts = SolverOptions(engine="splitlist", index_engine=index_engine)
        for mode in ("decide", "witness"):
            result = solve(g, ProblemSpec(DCut(0), mode=mode), opts)
            assert not result.feasible
            assert result.witness is None and result.count == 0

    @pytest.mark.parametrize("index_engine", ["bitset", "naive"])
    def test_stops_at_first_matching_chunk(self, monkeypatch, index_engine):
        # one query row per chunk: the join runs up to the first row with a
        # proper match, whose witness is the one a pairwise scan of the
        # solver's join inputs (mirrored when the problem is symmetric) picks
        monkeypatch.setattr(dominance, "_CHUNK_WORDS", 1)
        monkeypatch.setattr(dominance, "_CHUNK_ELEMS", 1)
        rows = self.count_joins(monkeypatch)
        opts = SolverOptions(engine="splitlist", index_engine=index_engine)
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
                result = solve(g, replace(spec, mode=mode), opts)
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
                result = solve(g, ProblemSpec(problem, size_target=t, mode="witness"), SPLIT)
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
            result = solve(g, ProblemSpec(problem, mode="count"), SPLIT)
            assert not result.stats.mirrored
            assert (result.stats.stored, result.stats.queries) == (
                len(inputs.data),
                len(inputs.query),
            )
            assert result.stats.generated == inputs.generated
            assert result.count == brute_force_count(g, problem).count
            assert count_by_size(g, ProblemSpec(problem), SPLIT) == (
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
                first, second = solve(g, spec, SPLIT), solve(g, spec, SPLIT)
                first.stats.time_ms = second.stats.time_ms = 0.0
                assert first == second
                assert first.stats.cut_edges == solver._low_cut_split(g)[2]


class TestBoxSum:
    def test_forced_pair(self):
        assert solve_vector_box_sum([[1, 0], [0, 1]], [1, 1], [1, 1]) == [0, 1]

    def test_no_subset(self):
        assert solve_vector_box_sum([[2]], [1], [1]) is None

    def test_empty_subset_admissible(self):
        assert solve_vector_box_sum([[5]], [0, ], [0]) == []

    def test_disallow_empty(self):
        assert solve_vector_box_sum([[5]], [0], [0], allow_empty=False) is None
        # a nonempty zero-sum subset is still found
        found = solve_vector_box_sum([[5], [-5]], [0], [0], allow_empty=False)
        assert found == [0, 1]

    def test_validates_box(self):
        with pytest.raises(ValueError):
            solve_vector_box_sum([[1, 2]], [1, 1], [0, 0])
        with pytest.raises(ValueError):
            solve_vector_box_sum([[1, 2]], [0], [0, 0])

    def test_against_brute_force(self):
        rng = random.Random(31)
        for trial in range(60):
            k = rng.randint(0, 12)
            dim = rng.randint(1, 6)
            vectors = [
                [rng.randint(-6, 6) for _ in range(dim)] for _ in range(k)
            ]
            centre = [rng.randint(-8, 8) for _ in range(dim)]
            width = rng.randint(0, 4)
            lo = [c - width for c in centre]
            hi = [c + width for c in centre]
            witness = solve_vector_box_sum(vectors, lo, hi)
            feasible = False
            for size in range(k + 1):
                for subset in itertools.combinations(range(k), size):
                    sums = [
                        sum(vectors[i][j] for i in subset) for j in range(dim)
                    ]
                    if all(lo[j] <= sums[j] <= hi[j] for j in range(dim)):
                        feasible = True
                        break
                if feasible:
                    break
            assert (witness is not None) == feasible
            if witness is not None:
                sums = [sum(vectors[i][j] for i in witness) for j in range(dim)]
                assert all(lo[j] <= sums[j] <= hi[j] for j in range(dim))
                assert witness == sorted(set(witness))
