import random

import numpy as np
import pytest

from splitcut import (
    AlphaBetaDomination,
    ConstraintParseError,
    Cut,
    DCut,
    Graph,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    ProblemSpec,
    VertexConstraints,
    VertexSet,
    abdom_to_icc,
    brute_force_count,
    dcut_to_icc,
    internal_to_icc,
    interval_constraints,
    parse_constraints,
    random_graph,
    validate_cut,
)
from splitcut.problems import validate_spec

from conftest import complete_graph, edgeless_graph, path_graph
from helpers import random_problem


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 1)

    def test_below_zero_rejected(self):
        with pytest.raises(ValueError):
            Interval(-3, -1)

    def test_clamp_warns_and_clips(self):
        with pytest.warns(UserWarning):
            assert Interval(0, 10**9).clamp(5) == Interval(0, 5)
        with pytest.warns(UserWarning):
            assert Interval(-2, 3).clamp(5) == Interval(0, 3)

    def test_clamp_noop_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Interval(1, 4).clamp(5) == Interval(1, 4)

    def test_contains(self):
        assert 2 in Interval(1, 3)
        assert 0 not in Interval(1, 3)

    def test_fractional_end_rejected(self):
        # the column plan's int16 table truncated 0.5 to 0, so abdom with
        # alpha = [0.5, 3] counted cuts whose left vertices have no left
        # neighbour
        for lo, hi in ((0.5, 3), (0, 2.5), (1.0, 3), ("1", 3)):
            with pytest.raises(ValueError, match="is not an integer"):
                Interval(lo, hi)

    def test_numpy_ints_stored_as_int(self):
        iv = Interval(np.int64(1), np.uint8(3))
        assert iv == Interval(1, 3)
        assert type(iv.lo) is int and type(iv.hi) is int
        assert hash(iv) == hash(Interval(1, 3))


class TestReductions:
    def test_dcut_d1(self):
        g = edgeless_graph(4)
        cons = dcut_to_icc(g, 1)
        assert all(
            c
            == VertexConstraints(
                Interval(0, 4), Interval(0, 1), Interval(0, 4), Interval(0, 1)
            )
            for c in cons
        )

    def test_dcut_boundaries(self):
        g = edgeless_graph(4)
        assert dcut_to_icc(g, 0)[0].left_cross == Interval(0, 0)
        assert dcut_to_icc(g, 4)[0].left_cross == Interval(0, 4)
        with pytest.raises(ValueError):
            dcut_to_icc(g, 5)
        with pytest.raises(ValueError):
            dcut_to_icc(g, -1)

    def test_abdom(self):
        g = edgeless_graph(4)
        cons = abdom_to_icc(g, Interval(1, 2), Interval(0, 0))
        c = cons[0]
        assert c.left_own == Interval(1, 2)
        assert c.right_cross == Interval(0, 0)
        assert c.left_cross == Interval(0, 4)
        assert c.right_own == Interval(0, 4)

    def test_internal_degree_examples(self):
        # degrees 0, 1 and 3 force own-side minimums 0, 1 and 2
        iso = edgeless_graph(1)
        assert internal_to_icc(iso)[0].left_own == Interval(0, 1)
        p2 = path_graph(2)
        assert internal_to_icc(p2)[0].left_own == Interval(1, 2)
        k4 = complete_graph(4)
        assert internal_to_icc(k4)[0].left_own == Interval(2, 4)

    def test_pure(self, rng):
        g = random_graph(7, 0.5, rng)
        assert internal_to_icc(g) == internal_to_icc(g)
        assert dcut_to_icc(g, 2) == dcut_to_icc(g, 2)

    def test_soundness_exhaustive(self, rng):
        # the interval image accepts exactly the same cuts as the original
        # definition, over every bipartition of every sampled graph
        for _ in range(25):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problems = [
                DCut(rng.choice([0, 1, 2])),
                InternalPartition(),
                AlphaBetaDomination(
                    Interval(0, rng.randint(0, n)), Interval(rng.randint(0, n), n)
                ),
            ]
            for problem in problems:
                image = IntervalConstrainedCut(interval_constraints(g, problem))
                for mask in range(1 << n):
                    cut = Cut.from_left(VertexSet(mask, n))
                    assert (
                        validate_cut(g, problem, cut)[0]
                        == validate_cut(g, image, cut)[0]
                    )


class TestValidateSpec:
    def test_mode_and_ranges(self, rng):
        g = random_graph(5, 0.5, rng)
        validate_spec(g, ProblemSpec(DCut(0)))
        with pytest.raises(ValueError):
            validate_spec(g, ProblemSpec(DCut(6)))
        with pytest.raises(ValueError):
            validate_spec(g, ProblemSpec(InternalPartition(), size_target=5))
        with pytest.raises(ValueError):
            validate_spec(g, ProblemSpec(InternalPartition(), size_target=0))
        with pytest.raises(ValueError):
            validate_spec(g, ProblemSpec(InternalPartition(), mode="nope"))
        with pytest.raises(ValueError):
            validate_spec(
                g, ProblemSpec(IntervalConstrainedCut(tuple()))
            )


CONSTRAINT_TEXT = """\
# vertex a_lo a_hi b_lo b_hi c_lo c_hi d_lo d_hi
2 0 3 0 3 0 3 0 3
1 1 2 0 0 0 3 0 3
3 0 3 0 1 0 3 0 2
"""


class TestParseConstraints:
    def test_round_trip_any_order(self):
        cons = parse_constraints(CONSTRAINT_TEXT, 3)
        assert cons[0].left_own == Interval(1, 2)
        assert cons[0].left_cross == Interval(0, 0)
        assert cons[1].left_own == Interval(0, 3)
        assert cons[2].left_cross == Interval(0, 1)
        assert cons[2].right_cross == Interval(0, 2)

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("1 0 1 0 1 0 1 0", "bad_line"),
            ("1 0 1 0 1 0 1 0 x", "bad_line"),
            ("5 0 1 0 1 0 1 0 1", "bad_index"),
            ("1 0 1 0 1 0 1 0 1\n1 0 1 0 1 0 1 0 1", "duplicate_vertex"),
            ("1 0 1 0 1 0 1 0 1", "missing_vertex"),
            ("1 2 1 0 1 0 1 0 1", "bad_interval"),
        ],
    )
    def test_errors(self, text, reason):
        n = 2 if reason == "missing_vertex" else 1 if reason != "bad_index" else 4
        with pytest.raises(ConstraintParseError) as err:
            parse_constraints(text, n)
        assert err.value.reason == reason


class TestReducedSemantics:
    def test_alpha_zero_is_independent_set(self, rng):
        # with alpha=[0,0] and beta free, feasible left sides are exactly the
        # nonempty proper independent sets
        for _ in range(10):
            n = rng.randint(2, 8)
            g = random_graph(n, 0.5, rng)
            problem = AlphaBetaDomination(Interval(0, 0), Interval(0, n))
            expected = 0
            for mask in range(1, (1 << n) - 1):
                members = [v for v in range(n) if (mask >> v) & 1]
                if all(
                    not (g.adj[u] >> v) & 1
                    for i, u in enumerate(members)
                    for v in members[i + 1 :]
                ):
                    expected += 1
            assert brute_force_count(g, problem).count == expected

    def test_random_problem_generator_valid(self, rng):
        for _ in range(10):
            n = rng.randint(1, 9)
            problem = random_problem(rng, n)
            g = random_graph(n, 0.5, rng)
            validate_spec(g, ProblemSpec(problem))


class TestUnknownInput:
    def test_non_problem_rejected(self, p4):
        # every entry point that dispatches on the problem type refuses an
        # object that is none of the four problems
        cut = Cut.from_left(VertexSet.of([0, 1], 4))
        calls = [
            lambda: validate_spec(p4, ProblemSpec(object())),
            lambda: interval_constraints(p4, object()),
            lambda: validate_cut(p4, object(), cut),
            lambda: brute_force_count(p4, object()),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="unknown problem type object"):
                call()

    def test_icc_length_checked(self, p4):
        free = Interval(0, 4)
        problem = IntervalConstrainedCut((VertexConstraints(free, free, free, free),) * 3)
        with pytest.raises(ValueError, match="expected 4 vertex constraints, got 3"):
            interval_constraints(p4, problem)
