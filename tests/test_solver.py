import itertools
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from splitcut import (
    AlphaBetaDomination,
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
    construct_witness,
    count_by_size,
    count_solutions,
    interval_constraints,
    optimize_size,
    random_graph,
    solve,
    solve_vector_box_sum,
    solve_with_size,
    split_halves,
    validate_cut,
    VertexConstraints,
)
from splitcut import dominance, solver
from splitcut.encoding import _SideEnumeration, _upper_bounds, build_join_inputs
from splitcut.solver import _extract_witness, _join_rows, _memory_estimate

from conftest import edgeless_graph, path_graph
from helpers import random_problem

SPLIT = SolverOptions(engine="splitlist")


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
        for opts in (SPLIT, SolverOptions(engine="pairjoin")):
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
        # the quadratic join extracts witnesses without an index
        opts = SolverOptions(engine="pairjoin")
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
            SolverOptions(engine="pairjoin"),
            SolverOptions(engine="brute"),
            SolverOptions(engine="splitlist", index_engine="naive"),
            SolverOptions(engine="splitlist", index_engine="recursive"),
            SolverOptions(engine="splitlist", prune=False),
            SolverOptions(engine="splitlist", leaf_threshold=1),
            SolverOptions(engine="splitlist", leaf_threshold=1024),
            SolverOptions(engine="splitlist", shuffle_coords=True, seed=9),
            SolverOptions(engine="splitlist", threads=3),
        ]
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            spec = ProblemSpec(random_problem(rng, n), mode="count")
            counts = {solve(g, spec, opts).count for opts in option_sets}
            assert len(counts) == 1

    def test_internal_routes_agree(self, rng):
        for _ in range(15):
            n = rng.randint(1, 10)
            g = random_graph(n, 0.5, rng)
            spec = ProblemSpec(InternalPartition(), mode="count")
            direct = solve(g, spec, SolverOptions(engine="splitlist"))
            via_icc = solve(
                g, spec, SolverOptions(engine="splitlist", internal_route="icc")
            )
            assert direct.count == via_icc.count

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
            for opts in (SPLIT, SolverOptions(engine="brute"), SolverOptions(engine="pairjoin")):
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
            unpruned = solve(g, spec, SolverOptions(engine="splitlist", prune=False))
            assert pruned.count == unpruned.count == brute_force_count(g, problem).count
            assert pruned.stats.stored <= unpruned.stats.stored


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
            for opts in (SPLIT, SolverOptions(engine="brute"), SolverOptions(engine="pairjoin")):
                assert solve(g, ProblemSpec(InternalPartition(), mode="count"), opts).count == expected


# the benchmark's abdom family: no left vertex may have a left neighbour,
# and no right vertex more than 4
ABDOM = AlphaBetaDomination(Interval(0, 0), Interval(0, 4))


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
            solve(
                g,
                ProblemSpec(DCut(1)),
                SolverOptions(engine="pairjoin", pairjoin_max_n=11),
            )

    @pytest.mark.parametrize("index_engine", ["bitset", "recursive", "naive"])
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
        assert peak <= _memory_estimate(g, spec, opts, "splitlist")

    @pytest.mark.parametrize(
        "problem, p",
        [(DCut(2), 0.1), (DCut(1), 0.25), (ABDOM, 0.3)],
        ids=["dcut2", "dcut1", "abdom"],
    )
    def test_pruned_levels_fit_the_half(self, problem, p):
        # each level repeats its prefixes into two children; no level may
        # hold more rows than the half has subsets
        g = random_graph(26, p, random.Random(1026))
        ub = _upper_bounds(interval_constraints(g, problem))
        for side in split_halves(g):
            with mock.patch.object(np, "repeat", wraps=np.repeat) as repeat:
                enum = _SideEnumeration.within_bounds(g, side, ub)
            levels = [2 * len(call.args[0]) for call in repeat.call_args_list]
            assert levels and max(levels) <= 1 << len(side)
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
            inputs = build_join_inputs(g, InternalPartition(), prune=False)
            ka = n // 2
            combined = (
                inputs.query_masks[:, None] | (inputs.data_masks[None, :] << np.uint64(ka))
            ).ravel()
            assert len(combined) == 1 << n
            assert len(np.unique(combined)) == 1 << n

    def test_edgeless_drops_both_improper_pairs(self):
        # every bipartition of an edgeless graph is internal, so both
        # improper pairs match and must both be taken off
        spec = ProblemSpec(InternalPartition(), mode="count")
        for n in range(1, 11):
            g = edgeless_graph(n)
            assert len(build_join_inputs(g, InternalPartition()).improper) == 2
            for opts in (
                SPLIT,
                SolverOptions(engine="splitlist", index_engine="naive", prune=False),
                SolverOptions(engine="splitlist", internal_route="icc"),
                SolverOptions(engine="pairjoin"),
            ):
                assert solve(g, spec, opts).count == (1 << n) - 2

    def test_capacity_rows_match_unpruned_inputs(self, rng):
        for n in range(2, 13):
            g = random_graph(n, 0.5, rng)
            inputs = build_join_inputs(g, DCut(1), prune=False)
            assert _join_rows(n) == len(inputs.query) + len(inputs.data)


def _zero_bounds_icc(n: int) -> IntervalConstrainedCut:
    """Every own and cross count capped at 0: a half with an internal edge
    has no subset that survives pruning."""
    zero = Interval(0, 0)
    return IntervalConstrainedCut(
        tuple(VertexConstraints(zero, zero, zero, zero) for _ in range(n))
    )


def _full_join_counts(inputs, size_target=None) -> np.ndarray:
    """Proper matches per query row by a pairwise scan over every column,
    keeping only pairs with |S| + |S'| = size_target when one is given."""
    hits = np.all(inputs.data[None, :, :] <= inputs.query[:, None, :], axis=2)
    if size_target is not None:
        qsizes = np.bitwise_count(inputs.query_masks).astype(int)
        dsizes = np.bitwise_count(inputs.data_masks).astype(int)
        hits &= qsizes[:, None] + dsizes[None, :] == size_target
    for qi, di in inputs.improper:
        hits[qi, di] = False
    return hits.sum(axis=1)


class TestTrivialColumns:
    """Columns with max(data) <= min(query) are dropped before the join."""

    def cases(self, rng):
        for _ in range(30):
            n = rng.randint(2, 10)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            yield g, ProblemSpec(random_problem(rng, n), size_target=rng.choice([None, n // 2]))
        # pruning empties the query side (an edge inside the first half), the
        # data side (an edge inside the second), or both
        for edges in ([(0, 1)], [(2, 3)], [(0, 1), (2, 3)]):
            g = Graph.from_edges(4, edges)
            yield g, ProblemSpec(_zero_bounds_icc(4))

    @pytest.mark.parametrize("engine", ["splitlist", "pairjoin"])
    @pytest.mark.parametrize("index_engine", ["bitset", "recursive", "naive"])
    def test_drop_changes_no_answer(self, rng, engine, index_engine):
        opts = SolverOptions(engine=engine, index_engine=index_engine)
        empty_sides = 0
        for g, spec in self.cases(rng):
            inputs = build_join_inputs(g, spec.problem)
            counts = _full_join_counts(inputs, spec.size_target)
            count = int(counts.sum())
            result = solve(g, replace(spec, mode="witness"), opts)
            assert result.stats.dim == inputs.dim
            assert result.stats.active_dim <= inputs.dim
            assert result.feasible == (count > 0)
            assert solve(g, replace(spec, mode="count"), opts).count == count
            if count:
                qi = int(np.argmax(counts > 0))
                full = _extract_witness(g, inputs, qi, spec.size_target)
                assert result.witness == full
            if not (len(inputs.query) and len(inputs.data)):
                empty_sides += 1
                assert result.stats.active_dim == inputs.dim
        assert empty_sides == 3

    def test_trivial_columns_are_dropped(self):
        # an edgeless graph leaves no binding column for internal partition
        g = edgeless_graph(8)
        result = solve(g, ProblemSpec(InternalPartition(), mode="count"), SPLIT)
        assert (result.stats.dim, result.stats.active_dim) == (16, 0)
        assert result.count == (1 << 8) - 2


class TestEarlyExit:
    """Decide and witness join the query rows one index chunk at a time and
    stop at the first chunk with a proper match."""

    @staticmethod
    def count_joins(monkeypatch) -> list[int]:
        rows = []
        real = DominanceIndex.batch_count

        def counting(self, queries, threads=1):
            rows.append(len(queries))
            return real(self, queries, threads=threads)

        monkeypatch.setattr(DominanceIndex, "batch_count", counting)
        return rows

    @pytest.mark.parametrize("index_engine", ["bitset", "recursive", "naive"])
    def test_improper_match_is_no_match(self, index_engine):
        # no proper cut of a connected graph is crossed by zero edges, but
        # the first query row, S = ∅, matches the data row S' = ∅
        g = path_graph(12)
        inputs = build_join_inputs(g, DCut(0))
        assert (0, 0) in inputs.improper
        assert int(inputs.query_masks[0]) == 0
        opts = SolverOptions(engine="splitlist", index_engine=index_engine)
        for mode in ("decide", "witness"):
            result = solve(g, ProblemSpec(DCut(0), mode=mode), opts)
            assert not result.feasible
            assert result.witness is None and result.count == 0

    @pytest.mark.parametrize("index_engine", ["bitset", "recursive", "naive"])
    def test_stops_at_first_matching_chunk(self, monkeypatch, index_engine):
        # one query row per chunk: the join runs up to the first row with a
        # proper match, whose witness is the one a full join picks
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
            inputs = build_join_inputs(g, problem)
            counts = _full_join_counts(inputs, spec.size_target)
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
                    full = _extract_witness(g, inputs, qi, spec.size_target)
                    assert result.witness == full
                    assert validate_cut(g, problem, result.witness)[0]
                    if spec.size_target is not None:
                        assert len(result.witness.left) == spec.size_target
            late += bool(counts.any()) and int(np.argmax(counts > 0)) > 0
        assert late >= 5


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
