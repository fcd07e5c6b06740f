import random

import pytest

from splitcut import (
    Cut,
    DCut,
    Graph,
    GraphParseError,
    InternalPartition,
    VertexSet,
    neighbor_count,
    parse_graph,
    random_graph,
    split_halves,
    validate_cut,
)


class TestParseGraph:
    def test_path_p4(self):
        g = parse_graph("4 3\n1 2\n2 3\n3 4")
        assert g.n == 4
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]

    def test_single_isolated_vertex(self):
        g = parse_graph("1 0")
        assert g.n == 1
        assert g.m == 0

    def test_triangle(self):
        g = parse_graph("3 3\n1 2\n2 3\n1 3")
        assert g.m == 3
        assert all(g.degree(v) == 2 for v in range(3))

    def test_comments_and_crlf(self):
        g = parse_graph("# header\r\n4 2\r\n1 2\r\n# middle\r\n3 4\r\n")
        assert g.m == 2
        assert (0, 1) in g.edges() and (2, 3) in g.edges()

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("", "bad_header"),
            ("banana", "bad_header"),
            ("2 x", "bad_header"),
            ("2.5 0", "bad_header"),
            ("2 -1", "bad_header"),
            ("0 0", "bad_vertex_count"),
            ("-2 0", "bad_vertex_count"),
            ("2 1\n1 1", "self_loop"),
            ("2 2\n1 2\n1 2", "duplicate_edge"),
            ("2 2\n1 2\n2 1", "duplicate_edge"),
            ("2 1\n1 3", "bad_index"),
            ("2 1\n0 1", "bad_index"),
            ("2 2\n1 2", "edge_count"),
            ("2 0\n1 2", "edge_count"),
            ("2 1\nx y", "bad_edge"),
            ("2 1\n1 2 3", "bad_edge"),
        ],
    )
    def test_errors(self, text, reason):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.reason == reason


class TestGraphGuards:
    @pytest.mark.parametrize(
        "n, adj, message",
        [
            (0, (), "at least one vertex"),
            (2, (0,), "adjacency length"),
            (3, (0, 0), "adjacency length"),
            (2, (0b100, 0), "outside universe"),
            (2, (-1, 0), "outside universe"),
            (2, (0b01, 0), "self-loop at vertex 0"),
            (2, (0b10, 0), "asymmetric adjacency between 1 and 0"),
            (3, (0b110, 0b001, 0b000), "asymmetric adjacency between 2 and 0"),
        ],
    )
    def test_rejects_bad_adjacency(self, n, adj, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, adj)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 2)], "outside universe"),
            ([(-1, 0)], "outside universe"),
            ([(1, 1)], "self-loop at vertex 1"),
            ([(0, 1), (1, 0)], "duplicate edge"),
            ([(0, 1), (0, 1)], "duplicate edge"),
        ],
    )
    def test_from_edges_rejects(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(2, edges)


class TestVertexSet:
    def test_membership_and_cardinality(self):
        s = VertexSet.of([0, 2, 5], 6)
        assert 0 in s and 2 in s and 5 in s and 1 not in s
        assert len(s) == 3
        assert sorted(s) == [0, 2, 5]

    def test_complement_and_ops(self):
        s = VertexSet.of([0, 1], 4)
        assert sorted(s.complement()) == [2, 3]
        t = VertexSet.of([1, 2], 4)
        assert sorted(s | t) == [0, 1, 2]
        assert sorted(s & t) == [1]
        assert sorted(s - t) == [0]
        assert s.issubset(s | t)

    def test_out_of_universe(self):
        with pytest.raises(ValueError):
            VertexSet.of([4], 4)
        with pytest.raises(ValueError):
            VertexSet(1 << 4, 4)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            VertexSet.of([0], 3) | VertexSet.of([0], 4)


class TestCut:
    def test_proper(self):
        cut = Cut.from_left(VertexSet.of([0], 2))
        assert cut.proper
        assert not Cut.from_left(VertexSet.empty(2)).proper

    def test_invariants(self):
        with pytest.raises(ValueError):
            Cut(VertexSet.of([0], 2), VertexSet.of([0, 1], 2))
        with pytest.raises(ValueError):
            Cut(VertexSet.of([0], 3), VertexSet.of([1], 3))


class TestNeighborCount:
    def test_examples(self, p4, k3):
        assert neighbor_count(p4, 1, VertexSet.of([0, 2], 4)) == 2
        assert neighbor_count(p4, 0, VertexSet.empty(4)) == 0
        assert neighbor_count(k3, 0, VertexSet.of([1], 3)) == 1

    def test_additivity_and_degree(self, rng):
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(n, 0.5, rng)
            v = rng.randrange(n)
            a = VertexSet.of([u for u in range(n) if rng.random() < 0.5], n)
            b_pool = [u for u in range(n) if u not in a]
            b = VertexSet.of([u for u in b_pool if rng.random() < 0.5], n)
            assert neighbor_count(g, v, a | b) == neighbor_count(g, v, a) + neighbor_count(g, v, b)
            assert neighbor_count(g, v, VertexSet.full(n)) == g.degree(v)
            assert neighbor_count(g, v, a) + neighbor_count(g, v, a.complement()) == g.degree(v)

    def test_adjacency_symmetry(self, rng):
        g = random_graph(10, 0.4, rng)
        for u in range(10):
            for v in range(10):
                assert (u in g.neighbors(v)) == (v in g.neighbors(u))
        for v in range(10):
            assert v not in g.neighbors(v)


class TestSplitHalves:
    @pytest.mark.parametrize("n,first", [(4, [0, 1]), (1, []), (5, [0, 1])])
    def test_examples(self, n, first):
        g = Graph.from_edges(n, [])
        va, vb = split_halves(g)
        assert sorted(va) == first
        assert sorted(vb) == sorted(set(range(n)) - set(first))


class TestValidateCut:
    def test_disjoint_edges_internal(self, two_edges):
        cut = Cut.from_left(VertexSet.of([0, 1], 4))
        ok, violation = validate_cut(two_edges, InternalPartition(), cut)
        assert ok and violation is None

    def test_k4_dcut_false(self, k4):
        cut = Cut.from_left(VertexSet.of([0, 1], 4))
        ok, violation = validate_cut(k4, DCut(1), cut)
        assert not ok
        assert violation.vertex == 0
        assert "cross" in violation.constraint

    def test_c4_dcut_true(self, c4):
        cut = Cut.from_left(VertexSet.of([0, 1], 4))
        ok, _ = validate_cut(c4, DCut(1), cut)
        assert ok

    def test_improper_cut(self, c4):
        ok, violation = validate_cut(c4, DCut(1), Cut.from_left(VertexSet.full(4)))
        assert not ok
        assert violation.constraint == "improper_cut"

    def test_relabeling_invariance(self, rng):
        # uniform per-vertex constraints: validity is stable under any vertex
        # permutation applied to both the graph and the cut
        for _ in range(20):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.5, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            left = [v for v in range(n) if rng.random() < 0.5]
            cut = Cut.from_left(VertexSet.of(left, n))
            cut2 = Cut.from_left(VertexSet.of([perm[v] for v in left], n))
            for problem in (DCut(1), InternalPartition()):
                assert (
                    validate_cut(g, problem, cut)[0]
                    == validate_cut(g2, problem, cut2)[0]
                )


class TestRandomGraph:
    def test_deterministic(self):
        g1 = random_graph(12, 0.3, random.Random(5))
        g2 = random_graph(12, 0.3, random.Random(5))
        assert g1 == g2

    def test_simple(self, rng):
        g = random_graph(15, 0.5, rng)
        edges = g.edges()
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)

    def test_probability_checked_before_drawing(self):
        # a p outside [0, 1] is refused before any draw, so valid p draws
        # the same graphs as without the check
        rng = random.Random(5)
        for p in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
                random_graph(5, p, rng)
        assert rng.random() == random.Random(5).random()
        # both ends stay valid
        assert random_graph(5, 1.0, rng).m == 10
        assert random_graph(5, 0.0, rng).m == 0


class TestInputChecks:
    def test_negative_universe(self):
        with pytest.raises(ValueError, match="nonnegative"):
            VertexSet(0, -1)

    def test_cut_over_two_universes(self):
        with pytest.raises(ValueError, match="different universes"):
            Cut(VertexSet(0b1, 1), VertexSet(0b10, 2))

    def test_neighbor_count_vertex_range(self):
        g = Graph.from_edges(3, [(0, 1)])
        for v in (-1, 3):
            with pytest.raises(ValueError, match="outside universe"):
                neighbor_count(g, v, VertexSet(0b11, 3))
