import pytest

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Graph,
    Interval,
    InternalPartition,
    ProblemSpec,
    ResourceLimitError,
    brute_force_count,
    naive_pair_join,
    random_graph,
    validate_cut,
)
from splitcut.oracle import brute_first_feasible

from conftest import edgeless_graph
from helpers import random_problem


class TestBruteForce:
    def test_two_disjoint_edges_internal(self, two_edges):
        assert brute_force_count(two_edges, InternalPartition()).count == 2

    def test_k4_dcut(self, k4):
        assert brute_force_count(k4, DCut(1)).count == 0

    def test_k3_abdom(self, k3):
        problem = AlphaBetaDomination(Interval(0, 0), Interval(0, 3))
        res = brute_force_count(k3, problem)
        assert res.count == 3
        assert res.min_left == 1 and res.max_left == 1

    def test_edgeless_internal(self):
        res = brute_force_count(edgeless_graph(4), InternalPartition())
        assert res.count == 14
        assert res.counts_by_size.tolist() == [0, 4, 6, 4, 0]
        assert res.min_left == 1 and res.max_left == 3

    def test_c4_dcut(self, c4):
        assert brute_force_count(c4, DCut(1)).count == 4

    def test_size_target(self, k3):
        problem = AlphaBetaDomination(Interval(0, 0), Interval(0, 3))
        assert brute_force_count(k3, ProblemSpec(problem, size_target=1)).count == 3
        assert brute_force_count(k3, ProblemSpec(problem, size_target=2)).count == 0

    def test_materialized_cuts_are_valid_and_distinct(self, rng):
        for _ in range(8):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            res = brute_force_count(g, problem, materialize=True)
            assert len(res.cuts) == res.count
            masks = {cut.left.mask for cut in res.cuts}
            assert len(masks) == res.count
            for cut in res.cuts:
                assert cut.proper
                assert validate_cut(g, problem, cut)[0]

    def test_guard(self):
        g = edgeless_graph(12)
        with pytest.raises(ResourceLimitError):
            brute_force_count(g, InternalPartition(), max_n=11)

    def test_materialize_limit(self):
        g = edgeless_graph(10)
        with pytest.raises(ResourceLimitError):
            brute_force_count(
                g, InternalPartition(), materialize=True, materialize_limit=5
            )

    def test_first_feasible(self, c4, k4):
        mask = brute_first_feasible(c4, DCut(1))
        assert mask is not None and 0 < mask < 15
        assert brute_first_feasible(k4, DCut(1)) is None

    def test_first_feasible_guard(self, c4):
        with pytest.raises(ResourceLimitError, match="n=4 exceeds brute-force guard 3"):
            brute_first_feasible(c4, DCut(1), max_n=3)
        assert brute_first_feasible(c4, DCut(1), max_n=4) is not None


class TestPairJoin:
    def test_edgeless_internal(self):
        assert naive_pair_join(edgeless_graph(4), InternalPartition()) == 14

    def test_c4_dcut(self, c4):
        assert naive_pair_join(c4, DCut(1)) == 4

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = rng.randint(1, 13)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            assert naive_pair_join(g, problem) == brute_force_count(g, problem).count

    def test_matches_brute_force_with_size(self, rng):
        for _ in range(10):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            t = rng.randint(1, n - 1) if n > 1 else 1
            spec = ProblemSpec(problem, size_target=t)
            assert naive_pair_join(g, spec) == brute_force_count(g, spec).count

    def test_guard(self):
        g = edgeless_graph(12)
        with pytest.raises(ResourceLimitError):
            naive_pair_join(g, InternalPartition(), max_n=11)


class TestImproperPairs:
    def test_edgeless_count_excludes_improper_cuts(self):
        # on edgeless graphs both improper pairs match every problem below,
        # so the pair join must take off exactly two
        for n in range(1, 11):
            g = edgeless_graph(n)
            for problem in (InternalPartition(), DCut(0)):
                assert naive_pair_join(g, problem) == (1 << n) - 2
