import random
import warnings

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
    brute_force_count,
    count_by_size,
    naive_pair_join,
    parse_constraints,
    random_graph,
    side_intervals,
    solve,
    validate_cut,
)
from splitcut.problems import validate_spec

from conftest import complete_graph, edgeless_graph, path_graph
from helpers import random_interval, random_problem, reference_side_intervals


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 1)

    def test_below_zero_rejected(self):
        with pytest.raises(ValueError):
            Interval(-3, -1)

    def test_clamp_warns_and_clips(self, p4):
        # alpha, beta and interval-constraint ends outside [0, n] are
        # clipped into it with one warning, and the table is the one of the
        # clipped ends
        free = Interval(0, 4)
        in_range = AlphaBetaDomination(Interval(2, 4), Interval(0, 4))
        icc = IntervalConstrainedCut((VertexConstraints(Interval(1, 4), free, free, free),) * 4)
        # the warning counts the ends cut off and names the first
        cases = [
            (
                AlphaBetaDomination(Interval(2, 10**9), Interval(-2, 10**30)),
                in_range,
                "3 interval end(s) outside [0, 4] clipped into it, the first alpha.hi = 1000000000 to 4",
            ),
            (
                AlphaBetaDomination(Interval(2, 4), Interval(0, 10**30)),
                in_range,
                f"1 interval end(s) outside [0, 4] clipped into it, the first beta.hi = {10**30} to 4",
            ),
            (
                IntervalConstrainedCut(
                    (VertexConstraints(free, free, free, free),)
                    + (VertexConstraints(Interval(1, 9), Interval(-5, 4), free, Interval(0, 10**30)),) * 3
                ),
                IntervalConstrainedCut((VertexConstraints(free, free, free, free),) + icc.per_vertex[1:]),
                "9 interval end(s) outside [0, 4] clipped into it, the first vertex 1 left_own.hi = 9 to 4",
            ),
        ]
        for clipped, want, message in cases:
            with pytest.warns(UserWarning) as caught:
                table = side_intervals(p4, clipped)
            assert [str(w.message) for w in caught] == [message]
            assert np.array_equal(table, side_intervals(p4, want))

    @pytest.mark.parametrize(
        "entry", [side_intervals, solve, count_by_size, naive_pair_join], ids=lambda f: f.__name__
    )
    def test_clip_warning_names_the_caller(self, p4, entry):
        # the warning points at the caller's line, however deep in the
        # package the ends are clipped
        problem = AlphaBetaDomination(Interval(0, 10**9), Interval(0, 4))
        arg = problem if entry is side_intervals else ProblemSpec(problem)
        with pytest.warns(UserWarning, match="clipped") as caught:
            entry(p4, arg)
        assert [w.filename for w in caught] == [__file__]

    def test_clamp_noop_is_silent(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("dcut", "internal", "abdom", "icc"):
                for n in (1, 5, 9):
                    g = random_graph(n, 0.5, rng)
                    side_intervals(g, random_problem(rng, n, kind=kind))

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


def accepts(problem, v, deg, on_left, ns):
    """Whether vertex v of degree deg, on the left or not, meets the
    problem's definition with ns = |N(v) ∩ V_L| of its neighbours on the
    left: the own count is ns on the left and deg - ns on the right, the
    cross count the other one."""
    own, cross = (ns, deg - ns) if on_left else (deg - ns, ns)
    if isinstance(problem, DCut):
        return cross <= problem.d
    if isinstance(problem, InternalPartition):
        return own >= cross
    if isinstance(problem, AlphaBetaDomination):
        return ns in (problem.alpha if on_left else problem.beta)
    c = problem.per_vertex[v]
    if on_left:
        return own in c.left_own and cross in c.left_cross
    return own in c.right_own and cross in c.right_cross


def wide_interval(rng, n):
    """An interval whose ends may lie outside [0, n]."""
    lo = rng.choice([-3, -1, 0, 1, n, n + 1, 10**9])
    return Interval(lo, max(lo, 0) + rng.choice([0, 1, 2, n, 10**30]))


def wide_problem(rng, n, kind):
    """`random_problem`, with alpha, beta and interval constraints that may
    reach outside [0, n]."""
    if kind == "abdom":
        return AlphaBetaDomination(wide_interval(rng, n), wide_interval(rng, n))
    if kind == "icc":
        def pick():
            return wide_interval(rng, n) if rng.random() < 0.3 else random_interval(rng, n)

        return IntervalConstrainedCut(
            tuple(VertexConstraints(*(pick() for _ in range(4))) for _ in range(n))
        )
    return random_problem(rng, n, kind=kind)


def wide_tables(rng, count, max_n):
    """`count` random graphs of at most `max_n` vertices, each with a
    `wide_problem` of the next family in turn, and its `side_intervals`
    table, the clip warnings silenced."""
    for i in range(count):
        n = rng.randint(1, max_n)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        problem = wide_problem(rng, n, ("dcut", "internal", "abdom", "icc")[i % 4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = side_intervals(g, problem)
        yield g, problem, table


class TestReductions:
    """`side_intervals` against the problem definitions and against
    `reference_side_intervals`, written per family in pure Python."""

    def test_dcut_d1(self, p4):
        # at most one neighbour across: I_L = [deg - 1, deg], I_R = [0, 1]
        assert side_intervals(p4, DCut(1)).tolist() == [
            [[0, 1], [0, 1]], [[1, 2], [0, 1]], [[1, 2], [0, 1]], [[0, 1], [0, 1]]
        ]
        g = edgeless_graph(4)
        assert side_intervals(g, DCut(1)).tolist() == [[[0, 0], [0, 0]]] * 4

    def test_dcut_boundaries(self, p4):
        assert side_intervals(p4, DCut(0)).tolist() == [[[d, d], [0, 0]] for d in (1, 2, 2, 1)]
        assert side_intervals(p4, DCut(4)).tolist() == [[[0, d], [0, d]] for d in (1, 2, 2, 1)]
        for d in (5, -1):
            with pytest.raises(ValueError, match=f"d={d} outside"):
                side_intervals(p4, DCut(d))

    def test_dcut_d_must_be_an_integer(self, p4):
        # a fractional d would give fractional ends, which the int16
        # column plan truncates; a numpy int gives the int16 table of d
        for d in (1.5, "1"):
            with pytest.raises(ValueError, match="is not an integer"):
                side_intervals(p4, DCut(d))
            with pytest.raises(ValueError, match="is not an integer"):
                validate_spec(p4, ProblemSpec(DCut(d)))
        table = side_intervals(p4, DCut(np.int64(1)))
        assert table.dtype == np.int16
        assert np.array_equal(table, side_intervals(p4, DCut(1)))

    def test_abdom(self, p4):
        problem = AlphaBetaDomination(Interval(1, 2), Interval(0, 0))
        assert side_intervals(p4, problem).tolist() == [[[1, d], [0, 0]] for d in (1, 2, 2, 1)]

    def test_internal_degree_examples(self):
        # degrees 0, 1 and 3 force own-side minimums 0, 1 and 2: the low
        # end on the left, and deg minus it as the high end on the right
        for g, low, high in (
            (edgeless_graph(1), 0, 0),
            (path_graph(2), 1, 0),
            (complete_graph(4), 2, 1),
        ):
            (lo_l, _), (_, hi_r) = side_intervals(g, InternalPartition())[0].tolist()
            assert (lo_l, hi_r) == (low, high)

    def test_pure(self, rng):
        # each call returns a fresh table, so a caller may write into it
        g = random_graph(7, 0.5, rng)
        for problem in (InternalPartition(), DCut(2), random_problem(rng, 7, kind="icc")):
            first = side_intervals(g, problem)
            want = first.copy()
            first += 1
            assert np.array_equal(side_intervals(g, problem), want)

    def test_matches_reference(self, rng):
        for g, problem, table in wide_tables(rng, 400, 14):
            assert table.shape == (g.n, 2, 2) and table.dtype == np.int16
            low_l, high_l, low_r, high_r = reference_side_intervals(g, problem)
            assert table[:, 0].T.tolist() == [low_l, high_l]
            assert table[:, 1].T.tolist() == [low_r, high_r]

    def test_soundness_exhaustive(self, rng):
        # every vertex, side and ns in [0, deg(v)]: ns lies in the side's
        # interval exactly when the definition holds
        checked = 0
        for g, problem, table in wide_tables(rng, 200, 9):
            for v in range(g.n):
                deg = g.degree(v)
                for side, on_left in ((0, True), (1, False)):
                    lo, hi = table[v, side].tolist()
                    for ns in range(deg + 1):
                        assert (lo <= ns <= hi) == accepts(problem, v, deg, on_left, ns)
                        checked += 1
        assert checked > 3000


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
            lambda: side_intervals(p4, object()),
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
            side_intervals(p4, problem)
