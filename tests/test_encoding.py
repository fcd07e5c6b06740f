import inspect
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitcut import (
    AlphaBetaDomination,
    Cut,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    VertexConstraints,
    VertexSet,
    dcut_to_icc,
    encode_half_row,
    interval_constraints,
    random_graph,
    split_halves,
    validate_cut,
)
from splitcut import Graph, encoding, solve
from splitcut.dominance import _block_counts
from splitcut.encoding import build_join_inputs, column_plan
from splitcut.oracle import _feasible_chunks, brute_force_count, naive_pair_join
from splitcut.problems import ProblemSpec

from conftest import complete_graph, edgeless_graph, path_graph
from helpers import (
    enumerate_half,
    every_column,
    full_enumeration,
    full_join_inputs,
    half_matrix,
    random_problem,
    reference_binds,
    reference_join_inputs,
    reference_levels,
    reference_matrix,
    side_intervals,
    ub_of,
)
from test_differential import graphs, intervals, lower_bound_icc, problems, symmetric_problems


def halves(g):
    return split_halves(g)


def vs(vertices, n):
    return VertexSet.of(vertices, n)


def proper_bipartitions(side):
    verts = sorted(side)
    k = len(verts)
    for mask in range(1, (1 << k) - 1):
        s = VertexSet.of([verts[j] for j in range(k) if (mask >> j) & 1], side.n)
        yield s, VertexSet(side.mask ^ s.mask, side.n)


def subsets(side):
    """Every subset S of the half, ∅ and the whole half included, in mask
    order."""
    verts = sorted(side)
    for mask in range(1 << len(verts)):
        yield VertexSet.of([v for j, v in enumerate(verts) if mask >> j & 1], side.n)


def planned(row, plan):
    """The entries of a single-pair row at the plan's columns."""
    return row[plan.binds.ravel()].tolist()


def query_row(g, problem, s):
    return encode_half_row(g, interval_constraints(g, problem), halves(g)[0], s)


def data_row(g, problem, s2):
    return -encode_half_row(g, interval_constraints(g, problem), halves(g)[1], s2)


def binding_bounds(g, problem):
    return int(reference_binds(g, problem).sum())


class TestInternalVectors:
    """Internal partition on the path 0-1-2-3 has I_L = [⌈deg/2⌉, deg] and
    I_R = [0, ⌊deg/2⌋]: both columns of every vertex with an edge bind, the
    low one on the left and the high one on the right.  Columns 2v and
    2v + 1 hold ns - lo and hi - ns for v in the half, and ns and -ns for
    any other vertex (ns = |N(v) ∩ S|); a data row is the negated row."""

    def test_p4_query(self, p4):
        plan = column_plan(p4, InternalPartition())
        # vertex 0 in S with I_L = [1, 1], vertex 1 in R with I_R = [0, 1]
        q = query_row(p4, InternalPartition(), vs([0], 4))
        assert planned(q, plan) == [-1, 1, 1, 0, 0, 0, 0, 0]
        assert plan.dim == 8

    def test_p4_query_swapped(self, p4):
        plan = column_plan(p4, InternalPartition())
        # vertex 0 in R with I_R = [0, 0], vertex 1 in S with I_L = [1, 2],
        # and vertex 2 of the other half with one neighbour in S
        q = query_row(p4, InternalPartition(), vs([1], 4))
        assert planned(q, plan) == [1, -1, -1, 2, 1, -1, 0, 0]

    def test_edgeless_query(self):
        g = edgeless_graph(4)
        plan = column_plan(g, InternalPartition())
        q = query_row(g, InternalPartition(), vs([0], 4))
        assert plan.dim == 0 and planned(q, plan) == []

    def test_p4_data(self, p4):
        plan = column_plan(p4, InternalPartition())
        # vertex 2 in S' with I_L = [1, 2], vertex 3 in R' with I_R = [0, 0]
        p = data_row(p4, InternalPartition(), vs([2], 4))
        assert planned(p, plan) == [0, 0, -1, 1, 1, -2, -1, 1]
        assert p.dtype == np.int16 and p.shape == (8,)

    def test_p4_data_swapped(self, p4):
        plan = column_plan(p4, InternalPartition())
        p = data_row(p4, InternalPartition(), vs([3], 4))
        assert planned(p, plan) == [0, 0, 0, 0, -1, 0, 1, -1]
        # neither swapped pair is feasible: vertex 0 or 1 has its neighbours
        # across, and its low column fails
        for s in ([0], [1]):
            assert not np.all(query_row(p4, InternalPartition(), vs(s, 4)) >= p)

    def test_edgeless_data(self):
        g = edgeless_graph(4)
        plan = column_plan(g, InternalPartition())
        p = data_row(g, InternalPartition(), vs([2], 4))
        assert planned(p, plan) == []
        # only the two properness columns
        assert build_join_inputs(g, InternalPartition()).dim == 2

    def test_non_bipartition_rejected(self, p4):
        va, vb = halves(p4)
        cons = interval_constraints(p4, InternalPartition())
        with pytest.raises(ValueError, match="not within the half"):
            encode_half_row(p4, cons, va, vs([0, 2], 4))
        with pytest.raises(ValueError, match="not within the half"):
            encode_half_row(p4, cons, vb, vs([1], 4))
        with pytest.raises(ValueError, match="different universe"):
            encode_half_row(p4, cons, va, vs([0], 5))

    def test_empty_side_accepted(self, p4):
        # the ∅ and whole-half rows of a join put the whole half on one
        # side; {0, 1} | {2, 3} is feasible, and its pair dominates
        q = query_row(p4, InternalPartition(), vs([0, 1], 4))
        assert q.tolist() == [0, 0, 0, 1, 1, -1, 0, 0]
        p = data_row(p4, InternalPartition(), vs([], 4))
        assert p.tolist() == [0, 0, 0, 0, 0, -1, 0, 0]
        assert np.all(q >= p)


# I_L = [1, min(2, deg)] and I_R = [deg, deg]: a left vertex has one or two
# neighbours on the left, a right vertex all of them
ICC = IntervalConstrainedCut(
    (VertexConstraints(Interval(1, 2), Interval(0, 4), Interval(0, 0), Interval(0, 4)),) * 4
)


class TestIccVectors:
    def test_p4_query_rows(self, p4):
        q = query_row(p4, ICC, vs([0], 4)).reshape(4, 2).tolist()
        # vertex 0 in S: ns = 0 against [1, 1]; vertex 1 in R: ns = 1
        # against [2, 2]; vertices 2 and 3 have no neighbour in S
        assert q == [[-1, 1], [-1, 1], [0, 0], [0, 0]]

    def test_edgeless_query_row(self):
        # deg = 0 makes I_L = [1, 0] empty: the low column of a vertex in S
        # is -1, below every data entry 0, so the vertex cannot be left
        g = edgeless_graph(4)
        q = query_row(g, ICC, vs([0], 4)).reshape(4, 2).tolist()
        assert q == [[-1, 0], [0, 0], [0, 0], [0, 0]]

    def test_p4_data_rows(self, p4):
        p = data_row(p4, ICC, vs([2], 4)).reshape(4, 2).tolist()
        # vertex 2 in S': ns = 0 against [1, 2]; vertex 3 in R': ns = 1
        # against [1, 1]; vertex 1 of the other half has one neighbour in S'
        assert p == [[0, 0], [-1, 1], [1, -2], [0, 0]]

    def test_edgeless_data_row(self):
        g = edgeless_graph(4)
        p = data_row(g, ICC, vs([2], 4)).reshape(4, 2).tolist()
        assert p == [[0, 0], [0, 0], [1, 0], [0, 0]]


class TestOffset:
    """The ends each half subtracts from its own vertices' counts: the
    column plan's I_L and I_R per vertex, as [[L_L, U_L], [L_R, U_R]]."""

    def test_dcut_offset(self, p4):
        # at most one neighbour across: I_L = [deg - 1, deg], I_R = [0, 1]
        plan = column_plan(p4, DCut(1))
        assert plan.intervals.tolist() == [
            [[0, 1], [0, 1]], [[1, 2], [0, 1]], [[1, 2], [0, 1]], [[0, 1], [0, 1]]
        ]
        # only the middle vertices' columns can fail
        assert plan.binds.tolist() == [[False, False], [True, True], [True, True], [False, False]]

    def test_dont_care_offset(self, p4):
        free = Interval(0, 4)
        dont_care = IntervalConstrainedCut((VertexConstraints(free, free, free, free),) * 4)
        plan = column_plan(p4, dont_care)
        assert plan.intervals.tolist() == [[[0, d], [0, d]] for d in (1, 2, 2, 1)]
        assert plan.dim == 0 and plan.upper_bounds() is None

    def test_abdom_offset(self, p4):
        plan = column_plan(p4, AlphaBetaDomination(Interval(1, 2), Interval(0, 0)))
        assert plan.intervals.tolist() == [[[1, d], [0, 0]] for d in (1, 2, 2, 1)]
        # the row subtracts the end of v's side: vertex 1 in S with
        # ns = 1 against [1, 2], vertex 0 in R with ns = 1 against [0, 0]
        q = query_row(p4, AlphaBetaDomination(Interval(1, 2), Interval(0, 0)), vs([1], 4))
        assert q.tolist() == [1, -1, -1, 2, 1, -1, 0, 0]

    def test_constraint_count_checked(self, p4):
        va, _ = halves(p4)
        with pytest.raises(ValueError, match="expected 4 vertex constraints, got 3"):
            encode_half_row(p4, dcut_to_icc(p4, 1)[:3], va, vs([0], 4))
        short = IntervalConstrainedCut(dcut_to_icc(p4, 1)[:3])
        with pytest.raises(ValueError, match="expected 4 vertex constraints, got 3"):
            column_plan(p4, short)


class TestIffProperty:
    def test_internal(self, rng):
        # the planned columns alone decide feasibility
        for _ in range(12):
            n = rng.randint(4, 9)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            plan = column_plan(g, InternalPartition())
            va, vb = halves(g)
            for s, _ in proper_bipartitions(va):
                q = np.array(planned(query_row(g, InternalPartition(), s), plan))
                for s2, _ in proper_bipartitions(vb):
                    p = np.array(planned(data_row(g, InternalPartition(), s2), plan))
                    dominates = bool(np.all(q >= p))
                    ok, _ = validate_cut(
                        g, InternalPartition(), Cut.from_left(s | s2)
                    )
                    assert dominates == ok

    def test_icc(self, rng):
        for _ in range(8):
            n = rng.randint(4, 8)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n, kind="icc")
            va, vb = halves(g)
            for s, _ in proper_bipartitions(va):
                q = query_row(g, problem, s)
                for s2, _ in proper_bipartitions(vb):
                    dominates = bool(np.all(q >= data_row(g, problem, s2)))
                    ok, _ = validate_cut(g, problem, Cut.from_left(s | s2))
                    assert dominates == ok

    def test_vacuous_ends_never_block(self, rng):
        # the end of the side a vertex is not on never blocks: on every
        # pair, the low column of a vertex holds when the low end of its
        # side is at most 0, and the high column when the high end is at
        # least deg(v), whatever the other side's ends are
        held = 0
        for _ in range(6):
            n = rng.randint(4, 8)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n, kind="icc")
            low_l, high_l, low_r, high_r = side_intervals(g, problem)
            deg = np.array([g.degree(v) for v in range(n)])
            va, vb = halves(g)
            datas = [(s2, data_row(g, problem, s2).reshape(n, 2)) for s2 in subsets(vb)]
            for s in subsets(va):
                q = query_row(g, problem, s).reshape(n, 2)
                for s2, d in datas:
                    left = np.array([v in s or v in s2 for v in range(n)])
                    vacuous = np.stack(
                        [
                            np.where(left, low_l, low_r) <= 0,
                            np.where(left, high_l, high_r) >= deg,
                        ],
                        axis=1,
                    )
                    assert np.all((q >= d)[vacuous])
                    held += int(vacuous.sum())
        assert held > 1000

    def test_entry_ranges_and_dims(self, rng):
        # 2n entries, each ns - lo or hi - ns with ns in [0, deg(v)], lo in
        # [0, n] and hi in [deg(v) - n, deg(v)]: every entry lies in [-n, n]
        for _ in range(30):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            va, vb = halves(g)
            for s in subsets(va):
                qc = query_row(g, problem, s)
                assert qc.shape == (2 * n,) and qc.dtype == np.int16
                assert np.all(np.abs(qc) <= n)
            for s2 in subsets(vb):
                pc = data_row(g, problem, s2)
                assert pc.shape == (2 * n,) and np.all(np.abs(pc) <= n)


class TestBatchMatchesSingle:
    def test_internal_and_icc(self, rng):
        for _ in range(8):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.5, rng)
            va, vb = halves(g)
            for problem in (InternalPartition(), random_problem(rng, n, kind="icc")):
                for side, role in [(va, "query"), (vb, "data")]:
                    # every subset in ascending order, the improper ∅ and
                    # whole half first and last: the batch builder agrees
                    # with the single-pair encoder on every row
                    masks = np.arange(1 << len(side), dtype=np.uint64)
                    ref = reference_matrix(g, problem, side, masks, role)
                    batch = half_matrix(g, problem, enumerate_half(g, side, None))
                    assert batch.dtype == ref.dtype and np.array_equal(batch, ref)


class TestJoinInputs:
    def test_no_size_columns(self, rng):
        # side sizes come from the masks, never from extra columns: the
        # matrices have exactly one column per binding bound and the two
        # properness columns
        assert "size_target" not in inspect.signature(build_join_inputs).parameters
        for _ in range(12):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            inputs = build_join_inputs(g, problem)
            dim = binding_bounds(g, problem) + 2
            assert inputs.dim == inputs.query.shape[1] == inputs.data.shape[1] == dim

    def test_prune_never_changes_counts(self, rng):
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            assert naive_pair_join(g, problem) == brute_force_count(g, problem).count

    def test_prune_drops_only_rows(self, rng):
        g = random_graph(10, 0.6, rng)
        full_query, full_qmasks, _, full_dmasks = full_join_inputs(g, DCut(0), prune=False)
        pruned = build_join_inputs(g, DCut(0))
        assert len(pruned.query) <= len(full_query)
        assert set(pruned.query_masks.tolist()) <= set(full_qmasks.tolist())
        assert set(pruned.data_masks.tolist()) <= set(full_dmasks.tolist())

    def test_properness_columns_fail_only_improper_pairs(self, rng):
        # a pair matches exactly when its cut is proper and its binding
        # columns match, and on (∅, ∅) and (V_A, V_B) these match exactly
        # when the improper cut meets every per-vertex condition.  On P4
        # with no right vertex beside another, pruning drops ∅ from both
        # halves, so the first rows pair into the proper cut {0, 2} | {1, 3}.
        free, none = Interval(0, 4), Interval(0, 0)
        right_apart = IntervalConstrainedCut((VertexConstraints(free, free, none, free),) * 4)
        cases = [(path_graph(4), right_apart)]
        inputs = build_join_inputs(*cases[0])
        assert inputs.query_masks[0] == inputs.data_masks[0] == 1
        assert np.all(inputs.data[0] <= inputs.query[0])
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            cases.append((g, random_problem(rng, n)))
        for g, problem in cases:
            n, ka = g.n, g.n // 2
            _, ok = next(_feasible_chunks(g, problem))
            inputs = build_join_inputs(g, problem)
            q, d = inputs.query, inputs.data
            binding = np.all(d[None, :, :-2] <= q[:, None, :-2], axis=2)
            hits = np.all(d[None, :, :] <= q[:, None, :], axis=2)
            left = inputs.query_masks[:, None] | (inputs.data_masks[None, :] << np.uint64(ka))
            improper = (left == 0) | (left == (1 << n) - 1)
            assert np.array_equal(hits, binding & ~improper)
            for mask in (0, (1 << n) - 1):
                # pruning never drops the rows of a cut that meets every
                # condition
                at = np.argwhere(left == mask)
                assert len(at) == 1 or not ok[mask]
                assert all(binding[qi, di] == ok[mask] for qi, di in at)

    def test_pairwise_scan_counts_proper_cuts(self, rng):
        # a dominance scan over every pair, with no correction, gives the
        # brute-force strata: n = 1 (an empty first half) to 3, and
        # edgeless graphs, where both improper cuts meet every condition
        cases = [
            (random_graph(n, p, rng), random_problem(rng, n))
            for n in (1, 2, 3)
            for p in (0.0, 0.5, 1.0)
            for _ in range(4)
        ]
        for n in range(1, 11):
            g = edgeless_graph(n)
            cases += [(g, InternalPartition()), (g, DCut(0))]
        for g, problem in cases:
            inputs = build_join_inputs(g, problem)
            hits = np.all(inputs.data[None, :, :] <= inputs.query[:, None, :], axis=2)
            sizes = (
                np.bitwise_count(inputs.query_masks)[:, None]
                + np.bitwise_count(inputs.data_masks)[None, :]
            )
            strata = np.bincount(sizes[hits].astype(int), minlength=g.n + 1)
            assert strata.tolist() == brute_force_count(g, problem).counts_by_size.tolist()


def assert_same_rows(g, got, want):
    """The enumerated half keeps the reference masks `want`, and its join
    matrix over all 2n columns, which carries every count of every vertex
    and the side of each vertex of the half, is the reference's."""
    assert got.masks.dtype == np.uint32 and got.masks.shape == want.shape
    assert np.array_equal(got.masks, want)
    problem = every_column(g)
    role = "query" if got.side == split_halves(g)[0] else "data"
    matrix = half_matrix(g, problem, got)
    ref = reference_matrix(g, problem, got.side, want, role)
    assert matrix.dtype == ref.dtype and np.array_equal(matrix, ref)


def assert_same_inputs(inputs, want):
    got = (inputs.query, inputs.query_masks, inputs.data, inputs.data_masks)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    assert inputs.dim == want[0].shape[1]


class TestPrunedEnumeration:
    """The enumeration keeps exactly the rows, in the order, of the
    reference that filters every subset of the half by the break rule."""

    @settings(
        derandomize=True,
        database=None,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_matches_full_enumeration(self, data):
        g = data.draw(graphs())
        problem = data.draw(problems(g.n))
        ub = ub_of(g, problem)
        for side in split_halves(g):
            enum = enumerate_half(g, side, ub)
            assert_same_rows(g, enum, full_enumeration(g, side, ub))
            # level j holds at most 2^j rows, the empty row being level 0,
            # and the levels are those of the schedule
            assert len(enum.masks) <= enum.generated < 2 << len(side)
            assert enum.generated == sum(reference_levels(g, side, ub, 256)[1])
        inputs = build_join_inputs(g, problem)
        assert_same_inputs(inputs, full_join_inputs(g, problem, True))

    def test_unbounded_halves_build_every_subset(self, rng):
        # with no cap, or none below a degree (d-cut with d = n), a half of
        # k vertices keeps all 2 + 4 + ... + 2^k rows of its levels
        for n in (1, 2, 9, 24):
            g = random_graph(n, 0.5, rng)
            ka = n // 2
            for side in split_halves(g):
                enum = enumerate_half(g, side, None)
                assert_same_rows(g, enum, full_enumeration(g, side, None))
                assert enum.generated == (2 << len(side)) - 1
            full = (2 << ka) - 1 + (2 << (n - ka)) - 1
            assert build_join_inputs(g, DCut(n)).generated == full

    def test_empty_first_half(self):
        g = edgeless_graph(1)
        va, vb = split_halves(g)
        enum = enumerate_half(g, va, ub_of(g, DCut(0)))
        assert enum.masks.tolist() == [0] and enum.generated == 1
        for problem in (DCut(0), InternalPartition()):
            inputs = build_join_inputs(g, problem)
            # the empty half's one row, then 1 + 2 rows of the other half
            assert inputs.generated == 4
            assert_same_inputs(inputs, full_join_inputs(g, problem, True))

    def test_half_must_be_consecutive(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="consecutive"):
            enumerate_half(g, vs([0, 2], 4), None)

    def test_vacuous_bounds_prune_nothing(self):
        # every level keeps both children: 1 + 2 + 4 + ... + 2^12 rows
        g = random_graph(24, 0.3, random.Random(5))
        ub = ub_of(g, DCut(24))
        for side in split_halves(g):
            enum = enumerate_half(g, side, ub)
            assert_same_rows(g, enum, full_enumeration(g, side, None))
            assert enum.generated == (1 << 13) - 1

    def test_dense_dcut0_keeps_only_one_sided_rows(self):
        g = complete_graph(24)
        ub = ub_of(g, DCut(0))
        for side in split_halves(g):
            enum = enumerate_half(g, side, ub)
            assert_same_rows(g, enum, full_enumeration(g, side, ub))
            assert enum.masks.tolist() == [0, (1 << 12) - 1]
            # the levels double up to 512 rows, the first above
            # _CHECK_ROWS, whose check keeps the 2 one-sided rows; then
            # levels of 4, 8 and 16 rows up to the last placement's check
            assert enum.generated == (1 << 10) - 1 + 4 + 8 + 16
            with mock.patch.object(encoding, "_CHECK_ROWS", 1):
                enum = enumerate_half(g, side, ub)
            assert_same_rows(g, enum, full_enumeration(g, side, ub))
            # checked at every placement: the empty row and the first
            # level (1 + 2 rows), then 11 levels of 4 rows that keep 2
            assert enum.generated == 1 + 2 + 4 * 11
        inputs = build_join_inputs(g, DCut(0))
        assert_same_inputs(inputs, full_join_inputs(g, DCut(0), True))

    def test_everything_pruned(self):
        # no vertex of K_24 may have a neighbour on its own side, which no
        # subset of a 12-vertex half allows
        g = complete_graph(24)
        none, every = Interval(0, 0), Interval(0, 24)
        problem = IntervalConstrainedCut((VertexConstraints(none, every, none, every),) * 24)
        for side in split_halves(g):
            enum = enumerate_half(g, side, ub_of(g, problem))
            assert len(enum.masks) == 0
            assert half_matrix(g, every_column(g), enum).shape == (0, 2 * 24 + 2)
        inputs = build_join_inputs(g, problem)
        assert len(inputs.query) == len(inputs.data) == 0
        assert_same_inputs(inputs, full_join_inputs(g, problem, True))
        result = solve(g, ProblemSpec(problem, mode="count"))
        assert result.count == 0 and not result.feasible

    def test_placed_neighbours_are_checked(self):
        # a star in the first half, centre 0 placed first: a leaf never has
        # more than one cross neighbour, so only the centre's count, which
        # changes when a leaf is placed after it, can drop a row
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3)])
        va, _ = split_halves(g)
        ub = ub_of(g, DCut(1))
        enum = enumerate_half(g, va, ub)
        assert_same_rows(g, enum, full_enumeration(g, va, ub))
        # 16 rows never pass _CHECK_ROWS: all levels of 1 to 16 rows are
        # built, and the last placement's check keeps 8
        assert enum.generated == 1 + 2 + 4 + 8 + 16
        assert len(enum.masks) == 8
        with mock.patch.object(encoding, "_CHECK_ROWS", 1):
            enum = enumerate_half(g, va, ub)
        assert_same_rows(g, enum, full_enumeration(g, va, ub))
        # checked at every placement: levels of 1, 2 and 4 rows; leaves 1
        # and 2 both across from the centre drop 2 of the 8 rows of level
        # 3, and level 4 builds 12 rows and keeps 8
        assert enum.generated == 1 + 2 + 4 + 8 + 12
        assert len(enum.masks) == 8

    @pytest.mark.parametrize(
        "d, check_rows, checks, generated",
        [
            # the levels double up to 512 rows, the first above 256; its
            # check and the last placement's keep the 2 one-sided rows
            (0, 256, 2, (1 << 10) - 1 + 4 + 8 + 16),
            # checked at every placement: the first placed vertex has no
            # placed neighbour, so the earliest check follows the second
            # placement; from then on each level builds 4 rows and keeps 2
            (0, 1, 11, 1 + 2 + 4 * 11),
            # 11 placed neighbours exceed the cap 10 only at the last bit,
            # which drops the 24 rows with exactly 11 vertices on one side
            (10, 256, 1, (1 << 13) - 1),
            (10, 1, 1, (1 << 13) - 1),
            # no vertex of a 12-vertex half has more than 11 placed
            # neighbours, so the cap 11 is never checked
            (11, 256, 0, (1 << 13) - 1),
            (11, 1, 0, (1 << 13) - 1),
        ],
        ids=[
            "earliest", "earliest-every", "last-bit", "last-bit-every", "never", "never-every"
        ],
    )
    def test_switch_points(self, d, check_rows, checks, generated):
        # the interval rule runs once the rows pass _CHECK_ROWS, and after
        # the last placement, when a pending vertex has more placed
        # neighbours than its cap
        g = complete_graph(24)
        ub = ub_of(g, DCut(d))
        with mock.patch.object(encoding, "_CHECK_ROWS", check_rows):
            for side in split_halves(g):
                with mock.patch.object(
                    encoding, "_within_bounds", wraps=encoding._within_bounds
                ) as rule:
                    enum = enumerate_half(g, side, ub)
                assert rule.call_count == checks
                assert_same_rows(g, enum, full_enumeration(g, side, ub))
                assert enum.generated == generated
            inputs = build_join_inputs(g, DCut(d))
        assert inputs.generated == 2 * generated
        assert_same_inputs(inputs, full_join_inputs(g, DCut(d), True))

    @settings(
        derandomize=True,
        database=None,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_rows_do_not_depend_on_check_rows(self, data):
        # checking at every placement, or only after the last one, keeps
        # the rows of the reference; a mirrored half keeps those without
        # its last vertex
        g = data.draw(graphs())
        ub = ub_of(g, data.draw(problems(g.n)))
        for side in split_halves(g):
            k = len(side)
            want = full_enumeration(g, side, ub)
            for check_rows in (1, 2 << k):
                with mock.patch.object(encoding, "_CHECK_ROWS", check_rows):
                    assert_same_rows(g, enumerate_half(g, side, ub), want)
                    mirrored = enumerate_half(g, side, ub, last_in_r=True)
                last = np.uint64(1 << k >> 1)
                assert_same_rows(g, mirrored, want[(want & last) == 0])


def assert_matches_reference(g, problem, check_rows=256, mirror=False):
    """`build_join_inputs` gives the matrices, masks and `generated` of the
    pure-Python references."""
    with mock.patch.object(encoding, "_CHECK_ROWS", check_rows):
        inputs = build_join_inputs(g, problem, mirror=mirror)
    *want, generated = reference_join_inputs(g, problem, check_rows, mirror)
    assert_same_inputs(inputs, want)
    assert inputs.generated == generated and inputs.mirrored == mirror
    return inputs


class TestEdgeCases:
    """The one-pass builder against the pure-Python references at the edges
    of its range."""

    def test_halves_of_zero_to_two_vertices(self, rng):
        # n = 1 to 4 gives halves of 0, 1 and 2 vertices; symmetric problems
        # are also built mirrored
        for n in (1, 2, 3, 4):
            for _ in range(20):
                g = random_graph(n, rng.choice([0.0, 0.5, 1.0]), rng)
                problem = random_problem(rng, n)
                assert_matches_reference(g, problem)
                if column_plan(g, problem).symmetric:
                    assert_matches_reference(g, problem, mirror=True)

    @pytest.mark.parametrize("check_rows", [256, 1, 4096])
    def test_halves_of_nine_and_ten_vertices(self, check_rows):
        # at 256 the first 9 placements are built at once and checked at
        # 512 rows, at 1 every placement is checked, and at 4096 only the
        # last; [1, deg - 1] on every count binds all 2n columns and keeps
        # nearly every row
        rng = random.Random(19)
        for n in (18, 19):
            g = random_graph(n, 0.5, rng)
            loose = IntervalConstrainedCut(
                tuple(VertexConstraints(*[Interval(1, g.degree(v) - 1)] * 4) for v in range(n))
            )
            for problem in (
                loose,
                DCut(2),
                InternalPartition(),
                random_problem(rng, n, kind="abdom"),
                random_problem(rng, n, kind="icc"),
            ):
                assert_matches_reference(g, problem, check_rows)

    def test_mirrored_halves(self):
        rng = random.Random(7)
        for n in (2, 5, 8, 17):
            g = random_graph(n, 0.4, rng)
            own, cross = Interval(1, n), Interval(0, 2)
            icc = IntervalConstrainedCut((VertexConstraints(own, cross, own, cross),) * n)
            for problem in (DCut(1), InternalPartition(), icc):
                for check_rows in (1, 256):
                    assert_matches_reference(g, problem, check_rows, mirror=True)

    def test_nothing_binds(self):
        # D-cut with d = n: no column binds and no cap is below a degree, so
        # the matrices hold the two properness columns alone
        for n in (1, 2, 7, 20):
            g = random_graph(n, 0.5, random.Random(n))
            for mirror in (False, True):
                inputs = assert_matches_reference(g, DCut(n), mirror=mirror)
                assert inputs.dim == inputs.query.shape[1] == 2

    def test_side_end_on_the_last_bit(self):
        # only the last vertex of each half binds, with I_L = [1, 7] and
        # I_R = [0, 5] on K_9: the two columns of V_A's last vertex add up to
        # the width of its side's interval, 6 where mask bit 3 puts it in S
        # and 5 where it is in R, and those of V_B's last vertex to minus
        # that width.  With [1, 7] on both sides the problem is symmetric,
        # and the mirrored data rows put V_B's last vertex in R' only
        n, last = 9, (3, 8)
        g = complete_graph(n)
        free = VertexConstraints(*[Interval(0, n)] * 4)
        ends = VertexConstraints(Interval(1, n), Interval(1, n), Interval(3, n), Interval(0, n))
        problem = IntervalConstrainedCut(tuple(ends if v in last else free for v in range(n)))
        loose = VertexConstraints(*[Interval(1, n - 2)] * 4)
        symmetric = IntervalConstrainedCut(tuple(loose if v in last else free for v in range(n)))
        assert column_plan(g, problem).dim == column_plan(g, symmetric).dim == 4
        bit = np.uint64(1)
        for check_rows in (1, 256):
            inputs = assert_matches_reference(g, problem, check_rows)
            in_s = (inputs.query_masks >> np.uint64(3)) & bit
            assert np.array_equal(inputs.query[:, 0] + inputs.query[:, 1], 5 + in_s)
            in_s = (inputs.data_masks >> np.uint64(4)) & bit
            assert np.array_equal(inputs.data[:, 2] + inputs.data[:, 3], -5 - in_s.astype(int))
            assert in_s.any()
            mirrored = assert_matches_reference(g, symmetric, check_rows, mirror=True)
            assert not ((mirrored.data_masks >> np.uint64(4)) & bit).any()

    def test_pruning_empties_one_half(self):
        # vertex 0 needs n neighbours on its own side, which no subset
        # allows: V_A keeps no row, V_B keeps all 32, and nothing matches
        n = 10
        g = random_graph(n, 0.5, random.Random(10))
        free, never = Interval(0, n), Interval(n, n)
        first = VertexConstraints(never, free, never, free)
        problem = IntervalConstrainedCut((first,) + (VertexConstraints(free, free, free, free),) * (n - 1))
        for check_rows in (1, 256):
            for mirror in (False, True):
                inputs = assert_matches_reference(g, problem, check_rows, mirror)
                assert len(inputs.query) == 0 and len(inputs.data) == 32 >> mirror
        assert solve(g, ProblemSpec(problem, mode="count")).count == 0


def reachable_masks(g, side, problem):
    """Reference for the caps that lower bounds imply, written from the
    intervals: the subset masks of the half in which every vertex of the
    half can still meet both of its intervals.  A count can when its
    committed part is at most hi, and that part plus the vertex's
    neighbours outside the half is at least lo."""
    cons = interval_constraints(g, problem)
    verts = sorted(side)
    keep = []
    for mask in range(1 << len(verts)):
        s = sum(1 << v for j, v in enumerate(verts) if mask >> j & 1)
        ok = True
        for v in verts:
            c = cons[v]
            ns = (g.adj[v] & s).bit_count()
            nr = (g.adj[v] & side.mask & ~s).bit_count()
            outside = g.degree(v) - ns - nr
            if s >> v & 1:
                counts = ((c.left_own, ns), (c.left_cross, nr))
            else:
                counts = ((c.right_own, nr), (c.right_cross, ns))
            if any(x > iv.hi or x + outside < iv.lo for iv, x in counts):
                ok = False
        if ok:
            keep.append(mask)
    return keep


class TestImpliedCaps:
    """A lower bound caps the complementary count of its side at deg(v)
    minus the bound, and the enumeration prunes on those caps too."""

    @settings(
        derandomize=True,
        database=None,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_kept_rows_can_still_meet_every_interval(self, data):
        g = data.draw(graphs())
        problem = data.draw(problems(g.n) | lower_bound_icc(g.n))
        ub = column_plan(g, problem).upper_bounds()
        for side in split_halves(g):
            want = reachable_masks(g, side, problem)
            for check_rows in (1, 2 << len(side)):
                with mock.patch.object(encoding, "_CHECK_ROWS", check_rows):
                    assert enumerate_half(g, side, ub).masks.tolist() == want

    def test_internal_partition_caps_cross_counts(self):
        g = random_graph(12, 0.5, random.Random(12))
        ub = column_plan(g, InternalPartition()).upper_bounds()
        deg = np.array([g.degree(v) for v in range(g.n)])
        assert np.array_equal(ub, [deg, deg // 2, deg, deg // 2])

    def test_lower_bound_above_degree_keeps_no_row_on_its_side(self):
        # vertex 0 of the path 0-1-2-3 has degree 1, so an own-count lower
        # bound of 3 caps its cross count at -2 on the left: no row puts
        # it in S.  A cap that wrapped to 254 in uint8 would keep them all
        g = path_graph(4)
        free, three = Interval(0, 4), Interval(3, 4)
        rest = VertexConstraints(free, free, free, free)
        first = VertexConstraints(three, free, free, free)
        problem = IntervalConstrainedCut((first,) + (rest,) * 3)
        ub = column_plan(g, problem).upper_bounds()
        assert ub[1, 0] == -2
        va, _ = split_halves(g)
        for check_rows in (1, 256):
            with mock.patch.object(encoding, "_CHECK_ROWS", check_rows):
                enum = enumerate_half(g, va, ub)
            assert enum.masks.tolist() == [0, 2] == reachable_masks(g, va, problem)
        result = solve(g, ProblemSpec(problem, mode="count"))
        assert result.count == brute_force_count(g, problem).count


@st.composite
def mixed_icc(draw, n):
    """Interval constraints whose bounds are vacuous on some vertices and
    binding on others."""
    free = Interval(0, n)
    return IntervalConstrainedCut(
        tuple(
            VertexConstraints(*(draw(st.just(free) | intervals(n)) for _ in range(4)))
            for _ in range(n)
        )
    )


def half_sides(g, half, mask):
    """(S, R) of the half for a subset mask (bit j = j-th smallest vertex)."""
    verts = sorted(half)
    s = VertexSet.of([v for j, v in enumerate(verts) if mask >> j & 1], g.n)
    return s, VertexSet(half.mask ^ s.mask, g.n)


class TestColumnPlan:
    """Only the columns whose bound can fail are encoded."""

    @settings(
        derandomize=True,
        database=None,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_matches_single_pair_reference(self, data):
        # every row equals the single-pair row (negated on the data side)
        # restricted to the ends that can fail
        g = data.draw(graphs())
        problem = data.draw(problems(g.n) | mixed_icc(g.n))
        inputs = build_join_inputs(g, problem)
        cols = reference_binds(g, problem)
        assert cols.sum() == column_plan(g, problem).dim == inputs.dim - 2
        assert np.array_equal(column_plan(g, problem).binds.ravel(), cols)
        cons = interval_constraints(g, problem)
        va, vb = split_halves(g)
        for masks, rows, half, sign in (
            (inputs.query_masks, inputs.query, va, 1),
            (inputs.data_masks, inputs.data, vb, -1),
        ):
            assert rows.shape == (len(masks), cols.sum() + 2)
            for mask, row in zip(masks.tolist(), rows):
                s, _ = half_sides(g, half, mask)
                want = sign * encode_half_row(g, cons, half, s)[cols]
                assert row[:-2].tolist() == want.tolist()

    def test_dim_counts_binding_bounds(self, rng):
        for kind in ("dcut", "internal", "abdom", "icc"):
            for _ in range(10):
                n = rng.randint(1, 12)
                g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
                problem = random_problem(rng, n, kind=kind)
                assert column_plan(g, problem).dim == binding_bounds(g, problem)
                assert build_join_inputs(g, problem).dim == binding_bounds(g, problem) + 2

    def test_dcut_at_max_degree_plans_nothing(self):
        # no cross count can exceed the largest degree: zero binding
        # columns, only the two properness columns, and every proper cut
        # counts.  The mirrored join keeps no whole-half data row, so only
        # the first properness column is left after the trivial-column drop
        g = random_graph(16, 0.4, random.Random(16))
        problem = DCut(max(g.degree(v) for v in range(g.n)))
        assert column_plan(g, problem).dim == 0
        result = solve(g, ProblemSpec(problem, mode="count"))
        assert result.stats.mirrored
        assert (result.stats.dim, result.stats.active_dim) == (2, 1)
        assert result.count == naive_pair_join(g, problem) == (1 << 16) - 2

    def test_nothing_binds_checks_nothing(self):
        # with no cap below a degree, a half of 12 or 13 vertices keeps
        # every row of every level and never runs the break rule
        for n in (24, 25):
            g = random_graph(n, 0.3, random.Random(1000 + n))
            ka = n // 2
            free = Interval(0, n)
            for problem in (AlphaBetaDomination(free, free), DCut(n)):
                with mock.patch.object(encoding, "_within_bounds") as rule:
                    inputs = build_join_inputs(g, problem)
                rule.assert_not_called()
                assert inputs.generated == (2 << ka) - 1 + (2 << (n - ka)) - 1

    def test_internal_skips_isolated_vertices(self):
        g = Graph.from_edges(10, [(0, 1), (1, 2), (5, 6)])
        assert build_join_inputs(g, InternalPartition()).dim == 2 * 5 + 2
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng.randint(2, 14), 0.15, rng)
            with_edges = sum(g.degree(v) > 0 for v in range(g.n))
            assert build_join_inputs(g, InternalPartition()).dim == 2 * with_edges + 2


class TestMirror:
    """A problem whose intervals do not change when L and R swap has its
    feasible cuts in reversed pairs, and a mirrored build keeps only the
    data rows without the last vertex of V_B."""

    def test_symmetric_instances_have_reversed_feasible_cuts(self, rng):
        # the predicate against the validator: on every instance the plan
        # calls symmetric, the reverse of each brute-force-feasible proper
        # cut is feasible
        reversed_cuts = 0
        for _ in range(60):
            n = rng.randint(2, 9)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            own, cross = Interval(1, n), Interval(0, rng.randint(0, 2))
            icc = IntervalConstrainedCut((VertexConstraints(own, cross, own, cross),) * n)
            symmetric = [DCut(min(rng.randint(0, 3), n)), InternalPartition(), icc]
            for problem in symmetric + [random_problem(rng, n)]:
                plan = column_plan(g, problem)
                assert plan.symmetric or problem not in symmetric
                if not plan.symmetric:
                    continue
                _, meets = next(_feasible_chunks(g, problem))
                for left in np.flatnonzero(meets[1:-1]) + 1:
                    cut = Cut.from_left(VertexSet(int(left), n))
                    assert validate_cut(g, problem, Cut(cut.right, cut.left))[0]
                    reversed_cuts += 1
        assert reversed_cuts > 100

    def test_abdom_with_distinct_intervals_is_not_symmetric(self, rng):
        # a vertex with an edge has I_L = [0, 0] and I_R = [0, min(hi,
        # deg)], not deg - I_L = [deg, deg]; on an edgeless graph both
        # intervals are [0, 0], every cut is feasible, and the plan is
        # symmetric
        for _ in range(20):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = AlphaBetaDomination(Interval(0, 0), Interval(0, rng.randint(1, n)))
            assert column_plan(g, problem).symmetric == (g.m == 0)

    @settings(
        derandomize=True,
        database=None,
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_keeps_the_data_rows_without_the_last_vertex(self, data):
        g = data.draw(graphs())
        plan = column_plan(g, data.draw(symmetric_problems(g.n)))
        assert plan.symmetric
        full = build_join_inputs(g, plan)
        mirrored = build_join_inputs(g, plan, mirror=True)
        assert mirrored.mirrored and not full.mirrored
        assert np.array_equal(mirrored.query, full.query)
        assert np.array_equal(mirrored.query_masks, full.query_masks)
        last = np.uint64(1 << (len(split_halves(g)[1]) - 1))
        keep = (full.data_masks & last) == 0
        assert np.array_equal(mirrored.data_masks, full.data_masks[keep])
        assert np.array_equal(mirrored.data, full.data[keep])
        assert mirrored.dim == full.dim
        # no whole-half data row is left, so the second properness column
        # holds for every pair
        assert not mirrored.data[:, -1].any()
        assert mirrored.generated <= full.generated

    def test_builds_no_row_with_the_last_vertex(self):
        # the last placement of an unbounded half of k vertices keeps its
        # 2^(k-1) rows and adds none: 1 + 2 + ... + 2^(k-1) + 2^(k-1)
        for n in (2, 3, 9, 24):
            g = random_graph(n, 0.3, random.Random(1000 + n))
            ka, kb = n // 2, n - n // 2
            inputs = build_join_inputs(g, DCut(n), mirror=True)
            assert len(inputs.data) == 1 << (kb - 1)
            assert inputs.generated == (2 << ka) - 1 + (1 << kb) - 1 + (1 << (kb - 1))

    def test_asymmetric_problem_is_not_mirrored(self):
        g = path_graph(6)
        with pytest.raises(ValueError, match="symmetric"):
            build_join_inputs(g, AlphaBetaDomination(Interval(0, 0), Interval(0, 4)), mirror=True)


class TestTwoColumnLayout:
    """The 2n layout against the oracles: two columns per vertex on
    ns(v) = |N(v) ∩ L|, each half subtracting the end of its own vertices'
    sides."""

    def test_unpruned_halves_count_brute_force(self):
        # the join matrices over every subset of both halves, and those of
        # the pruned build, count the brute-force cuts in a pairwise scan
        rng = random.Random(2121)
        for i in range(1500):
            kind = ("dcut", "internal", "abdom", "icc")[i % 4]
            n = rng.randint(2, 11)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n, kind=kind)
            va, vb = split_halves(g)
            query = half_matrix(g, problem, enumerate_half(g, va, None))
            data = half_matrix(g, problem, enumerate_half(g, vb, None))
            one = np.zeros(len(data), dtype=np.int64)
            want = brute_force_count(g, problem).count
            assert _block_counts(data, query, one, 1).sum() == want
            inputs = build_join_inputs(g, problem)
            one = np.zeros(len(inputs.data), dtype=np.int64)
            assert _block_counts(inputs.data, inputs.query, one, 1).sum() == want

    def test_row_sum_is_feasibility(self):
        # row_A(S) + row_B(S') >= 0 on every column exactly when the cut
        # S ∪ S' meets every condition: `validate_cut` on proper cuts, the
        # properness-free brute-force flags on the two improper ones
        rng = random.Random(2122)
        pairs = 0
        for i in range(200):
            kind = ("dcut", "internal", "abdom", "icc")[i % 4]
            n = rng.randint(2, 8)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n, kind=kind)
            cons = interval_constraints(g, problem)
            _, meets = next(_feasible_chunks(g, problem))
            va, vb = split_halves(g)
            rows_b = [(s2, encode_half_row(g, cons, vb, s2)) for s2 in subsets(vb)]
            for s in subsets(va):
                row_a = encode_half_row(g, cons, va, s)
                for s2, row_b in rows_b:
                    cut = Cut.from_left(s | s2)
                    if cut.proper:
                        ok = validate_cut(g, problem, cut)[0]
                    else:
                        ok = bool(meets[(s | s2).mask])
                    assert bool(np.all(row_a + row_b >= 0)) == ok
                    pairs += 1
        assert pairs > 12_000

    def test_closed_form_column_counts(self):
        # d-cut binds both columns of a vertex with more than d neighbours,
        # internal partition of a vertex with an edge; two-sided abdom binds
        # at most both columns of every vertex, half the 4n bounds it has
        rng = random.Random(2123)
        for _ in range(60):
            n = rng.randint(5, 30)
            g = random_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
            deg = [g.degree(v) for v in range(n)]
            for d in range(4):
                assert column_plan(g, DCut(min(d, n))).dim == 2 * sum(x > d for x in deg)
            assert column_plan(g, InternalPartition()).dim == 2 * sum(x >= 1 for x in deg)
            two_sided = AlphaBetaDomination(Interval(2, 5), Interval(2, 5))
            assert column_plan(g, two_sided).dim <= 2 * n
        g = random_graph(28, 0.3, random.Random(1028))
        assert build_join_inputs(g, two_sided).dim == 57

    def test_symmetric_families(self):
        # d-cut, internal partition and interval constraints with equal
        # left and right intervals satisfy I_R = deg(v) - I_L
        rng = random.Random(2124)
        for _ in range(60):
            n = rng.randint(1, 20)
            g = random_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
            own, cross = random_problem(rng, n, kind="abdom").alpha, Interval(0, rng.randint(0, n))
            icc = IntervalConstrainedCut((VertexConstraints(own, cross, own, cross),) * n)
            for problem in (DCut(min(rng.randint(0, 3), n)), InternalPartition(), icc):
                assert column_plan(g, problem).symmetric
