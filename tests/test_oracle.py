import random
from unittest import mock

import pytest

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Graph,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    ProblemSpec,
    ResourceLimitError,
    VertexConstraints,
    brute_force_count,
    build_index,
    count_by_size,
    naive_pair_join,
    random_graph,
    validate_cut,
)
from splitcut import dominance, solver

from conftest import edgeless_graph
from helpers import disjoint_union, product_strata, random_problem


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
        # the first feasible proper mask in mask order: the cut {0, 1} of C4
        assert brute_force_count(c4, DCut(1)).first == 0b0011
        assert brute_force_count(k4, DCut(1)).first is None
        # a size target filters before the first mask is taken
        assert brute_force_count(c4, ProblemSpec(DCut(1), size_target=3)).first is None

    def test_first_feasible_is_smallest_materialized(self, rng):
        for _ in range(20):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            res = brute_force_count(g, problem, materialize=True)
            masks = [cut.left.mask for cut in res.cuts]
            assert res.first == (min(masks) if masks else None)

    def test_first_feasible_guard(self, c4):
        with pytest.raises(ResourceLimitError, match="n=4 exceeds brute-force guard 3"):
            brute_force_count(c4, DCut(1), max_n=3)
        assert brute_force_count(c4, DCut(1), max_n=4).first is not None


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


def _per_vertex_cross_caps(n, rng):
    """Interval constraints that cap each vertex's cross count on either
    side at its own value in 1..3."""
    full = Interval(0, n)
    return IntervalConstrainedCut(
        tuple(
            VertexConstraints(full, Interval(0, rng.randint(1, 3)), full, Interval(0, rng.randint(1, 3)))
            for _ in range(n)
        )
    )


class TestProductOracle:
    """`product_strata` convolves the strata of a disjoint union's
    components; it shares only the definition-direct pass with brute force,
    and nothing with the solver."""

    def test_matches_brute_force(self):
        rng = random.Random(30)
        unions = [[rng.randint(1, 5) for _ in range(rng.randint(1, 4))] for _ in range(20)]
        for sizes in unions + [[5, 5, 5, 5], [10, 10], [1, 9, 10]]:
            g = disjoint_union(sizes, rng.choice([0.3, 0.5]), rng)
            kind = rng.choice(["dcut", "internal", "abdom", "icc", "caps"])
            if kind == "caps":
                problem = _per_vertex_cross_caps(g.n, rng)
            else:
                problem = random_problem(rng, g.n, kind)
            strata = brute_force_count(g, problem).counts_by_size.tolist()
            assert product_strata(g, problem) == strata

    @pytest.mark.parametrize(
        "kind, sizes, p, seed, multi_block",
        [
            ("dcut3", [11, 11, 12], 0.3, 0, True),
            ("abdom03", [10, 10, 10], 0.3, 1, True),
            ("dcut1", [10, 9, 9], 0.3, 2, False),
            ("internal", [12, 12, 12], 0.3, 3, False),
            ("abdom", [10, 10, 10], 0.3, 4, False),
            ("icc", [11, 11, 10], 0.3, 5, False),
        ],
        ids=["dcut3-34", "abdom03-30", "dcut1-28", "internal-36", "abdom-30", "icc-32"],
    )
    def test_matches_count_by_size(self, kind, sizes, p, seed, multi_block):
        # components straddle both halves; a multi-block union stores more
        # points than one block of the index holds
        rng = random.Random(seed)
        g = disjoint_union(sizes, p, rng)
        problem = {
            "dcut3": DCut(3),
            "abdom03": AlphaBetaDomination(Interval(0, 3), Interval(0, 3)),
            "dcut1": DCut(1),
            "internal": InternalPartition(),
            "abdom": AlphaBetaDomination(Interval(0, 1), Interval(1, 3)),
        }.get(kind) or _per_vertex_cross_caps(g.n, rng)
        with mock.patch.object(solver, "build_index", wraps=build_index) as built:
            strata = count_by_size(g, ProblemSpec(problem))
        assert strata == product_strata(g, problem) and sum(strata) > 0
        stored = len(built.call_args.args[0])
        assert (stored > dominance._BLOCK_ROWS) == multi_block
