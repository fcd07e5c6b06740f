import inspect
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitcut import (
    Cut,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    VertexConstraints,
    VertexSet,
    abdom_to_icc,
    dcut_to_icc,
    encode_icc_data,
    encode_icc_query,
    interval_constraints,
    make_offset,
    random_graph,
    split_halves,
    validate_cut,
)
from splitcut import Graph, SolverOptions, encoding, solve
from splitcut.encoding import (
    _SideEnumeration,
    _icc_matrix,
    build_join_inputs,
    column_plan,
)
from splitcut.oracle import _feasible_chunks, brute_force_count, naive_pair_join
from splitcut.problems import ProblemSpec

from conftest import complete_graph, edgeless_graph, path_graph
from helpers import full_enumeration, full_join_inputs, random_problem, ub_of
from test_differential import graphs, intervals, problems


def halves(g):
    return split_halves(g)


def vs(vertices, n):
    return VertexSet.of(vertices, n)


def proper_submasks(k):
    return np.arange(1, (1 << k) - 1, dtype=np.uint64)


def proper_bipartitions(side):
    verts = sorted(side)
    k = len(verts)
    for mask in range(1, (1 << k) - 1):
        s = VertexSet.of([verts[j] for j in range(k) if (mask >> j) & 1], side.n)
        yield s, VertexSet(side.mask ^ s.mask, side.n)


def planned(vec, plan, offset=False):
    """The entries of a single-pair vector at the plan's columns, with the
    offset added first when asked."""
    entries = vec.entries + plan.bounds.ravel() if offset else vec.entries
    return entries[plan.binds.ravel()].tolist()


def reference_plan(g, problem):
    """The binding columns of the 8n layout, flagged bound by bound: a lower
    bound above 0 or an upper bound below deg(v)."""
    n = g.n
    out = np.zeros(8 * n, dtype=bool)
    for v, c in enumerate(interval_constraints(g, problem)):
        for k, iv in enumerate((c.left_own, c.left_cross, c.right_own, c.right_cross)):
            out[2 * k * n + v] = iv.lo > 0
            out[(2 * k + 1) * n + v] = iv.hi < g.degree(v)
    return out


def binding_bounds(g, problem):
    return int(reference_plan(g, problem).sum())


class TestInternalVectors:
    """Internal partition binds the own-side lower bound ⌈deg(v)/2⌉ of every
    vertex with an edge: groups 1 (left) and 5 (right) of the 8n layout."""

    def test_p4_query(self, p4):
        va, vb = halves(p4)
        plan = column_plan(p4, InternalPartition())
        q = encode_icc_query(p4, va, vb, vs([0], 4), vs([1], 4))
        # group 1: |N(v) ∩ S| or the sentinel 8 for v in R; group 5:
        # |N(v) ∩ R| or the sentinel for v in S
        assert planned(q, plan) == [0, 8, 0, 0, 8, 0, 1, 0]
        assert plan.dim == 8

    def test_p4_query_swapped(self, p4):
        va, vb = halves(p4)
        plan = column_plan(p4, InternalPartition())
        q = encode_icc_query(p4, va, vb, vs([1], 4), vs([0], 4))
        assert planned(q, plan) == [8, 0, 1, 0, 0, 8, 0, 0]

    def test_edgeless_query(self):
        g = edgeless_graph(4)
        va, vb = halves(g)
        plan = column_plan(g, InternalPartition())
        q = encode_icc_query(g, va, vb, vs([0], 4), vs([1], 4))
        assert plan.dim == 0 and planned(q, plan) == []

    def test_p4_data(self, p4):
        va, vb = halves(p4)
        plan = column_plan(p4, InternalPartition())
        p = encode_icc_data(p4, va, vb, vs([2], 4), vs([3], 4))
        # the bound 1 minus |N(v) ∩ S'| (group 1) or |N(v) ∩ R'| (group 5),
        # or 1 - 8 where v's side is not the one the group checks
        assert planned(p, plan, offset=True) == [1, 0, 1, -7, 1, 1, -7, 1]
        assert p.role == "data"

    def test_p4_data_swapped(self, p4):
        va, vb = halves(p4)
        plan = column_plan(p4, InternalPartition())
        p = encode_icc_data(p4, va, vb, vs([3], 4), vs([2], 4))
        assert planned(p, plan, offset=True) == [1, 1, -7, 1, 1, 0, 1, -7]

    def test_edgeless_data(self):
        g = edgeless_graph(4)
        va, vb = halves(g)
        plan = column_plan(g, InternalPartition())
        p = encode_icc_data(g, va, vb, vs([2], 4), vs([3], 4))
        assert planned(p, plan, offset=True) == []
        assert build_join_inputs(g, InternalPartition()).dim == 0

    def test_improper_rejected(self, p4):
        va, vb = halves(p4)
        with pytest.raises(ValueError):
            encode_icc_query(p4, va, vb, vs([0, 1], 4), vs([], 4))
        with pytest.raises(ValueError):
            encode_icc_data(p4, va, vb, vs([2], 4), vs([2], 4))


class TestIccVectors:
    def test_p4_query_rows(self, p4):
        va, vb = halves(p4)
        q = encode_icc_query(p4, va, vb, vs([0], 4), vs([1], 4)).entries
        v1 = [int(q[k * 4 + 0]) for k in range(8)]
        v3 = [int(q[k * 4 + 2]) for k in range(8)]
        assert v1 == [0, 0, 1, -1, 8, 8, 8, 8]
        assert v3 == [0, 0, 1, -1, 1, -1, 0, 0]

    def test_edgeless_query_row(self):
        g = edgeless_graph(4)
        va, vb = halves(g)
        q = encode_icc_query(g, va, vb, vs([0], 4), vs([1], 4)).entries
        assert [int(q[k * 4 + 0]) for k in range(8)] == [0, 0, 0, 0, 8, 8, 8, 8]

    def test_p4_data_rows(self, p4):
        va, vb = halves(p4)
        p = encode_icc_data(p4, va, vb, vs([2], 4), vs([3], 4)).entries
        v3 = [int(p[k * 4 + 2]) for k in range(8)]
        v2 = [int(p[k * 4 + 1]) for k in range(8)]
        assert v3 == [0, 0, -1, 1, -8, -8, -8, -8]
        assert v2 == [-1, 1, 0, 0, 0, 0, -1, 1]

    def test_edgeless_data_row(self):
        g = edgeless_graph(4)
        va, vb = halves(g)
        p = encode_icc_data(g, va, vb, vs([2], 4), vs([3], 4)).entries
        assert [int(p[k * 4 + 2]) for k in range(8)] == [0, 0, 0, 0, -8, -8, -8, -8]


class TestOffset:
    def test_dcut_offset(self, p4):
        r = make_offset(dcut_to_icc(p4, 1), 4).entries
        assert [int(r[k * 4 + 0]) for k in range(8)] == [0, -4, 0, -1, 0, -4, 0, -1]

    def test_dont_care_offset(self):
        g = edgeless_graph(4)
        free = Interval(0, 4)
        cons = (VertexConstraints(free, free, free, free),) * 4
        r = make_offset(cons, 4).entries
        assert [int(r[k * 4 + 0]) for k in range(8)] == [0, -4, 0, -4, 0, -4, 0, -4]

    def test_abdom_offset(self):
        g = edgeless_graph(4)
        cons = abdom_to_icc(g, Interval(1, 2), Interval(0, 0))
        r = make_offset(cons, 4).entries
        assert [int(r[k * 4 + 0]) for k in range(8)] == [1, -2, 0, -4, 0, -4, 0, 0]


class TestIffProperty:
    def test_internal(self, rng):
        # the planned columns alone decide feasibility
        for _ in range(12):
            n = rng.randint(4, 9)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            plan = column_plan(g, InternalPartition())
            va, vb = halves(g)
            for s, r in proper_bipartitions(va):
                q = np.array(planned(encode_icc_query(g, va, vb, s, r), plan))
                for s2, r2 in proper_bipartitions(vb):
                    p = np.array(planned(encode_icc_data(g, va, vb, s2, r2), plan, True))
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
            offset = make_offset(interval_constraints(g, problem), n).entries
            va, vb = halves(g)
            for s, r in proper_bipartitions(va):
                q = encode_icc_query(g, va, vb, s, r).entries
                for s2, r2 in proper_bipartitions(vb):
                    p = encode_icc_data(g, va, vb, s2, r2).entries
                    dominates = bool(np.all(q >= p + offset))
                    ok, _ = validate_cut(g, problem, Cut.from_left(s | s2))
                    assert dominates == ok

    def test_sentinels_never_block(self, rng):
        # placed-vertex sentinel coordinates dominate every possible data
        # entry plus offset, and data sentinels are below every query entry
        for _ in range(6):
            n = rng.randint(4, 8)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n, kind="icc")
            offset = make_offset(interval_constraints(g, problem), n).entries
            va, vb = halves(g)
            queries = [
                encode_icc_query(g, va, vb, s, r).entries
                for s, r in proper_bipartitions(va)
            ]
            datas = [
                encode_icc_data(g, va, vb, s2, r2).entries + offset
                for s2, r2 in proper_bipartitions(vb)
            ]
            for q in queries:
                sentinel_cols = q == 2 * n
                for d in datas:
                    assert np.all(q[sentinel_cols] >= d[sentinel_cols])
            for s2, r2 in proper_bipartitions(vb):
                raw = encode_icc_data(g, va, vb, s2, r2).entries
                sentinel_cols = raw == -2 * n
                shifted = raw + offset
                for q in queries:
                    assert np.all(q[sentinel_cols] >= shifted[sentinel_cols])

    def test_entry_ranges_and_dims(self, rng):
        for _ in range(6):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.5, rng)
            va, vb = halves(g)
            s, r = next(proper_bipartitions(va))
            s2, r2 = next(proper_bipartitions(vb))
            qc = encode_icc_query(g, va, vb, s, r)
            pc = encode_icc_data(g, va, vb, s2, r2)
            assert qc.dim == 8 * n and pc.dim == 8 * n
            for vec in (qc, pc):
                assert np.all(vec.entries >= -2 * n)
                assert np.all(vec.entries <= 2 * n)


class TestBatchMatchesSingle:
    def test_internal_and_icc(self, rng):
        for _ in range(8):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.5, rng)
            va, vb = halves(g)
            for problem in (InternalPartition(), random_problem(rng, n, kind="icc")):
                plan = column_plan(g, problem)
                for side, role, single in [
                    (va, "query", encode_icc_query),
                    (vb, "data", encode_icc_data),
                ]:
                    masks = proper_submasks(len(side))
                    enum = _SideEnumeration(g, side, masks)
                    batch = _icc_matrix(n, enum, role, plan.binds)
                    for row, (s, r) in zip(batch, proper_bipartitions(side)):
                        assert row.tolist() == planned(single(g, va, vb, s, r), plan)


class TestJoinInputs:
    def test_no_size_columns(self, rng):
        # side sizes come from the masks, never from extra columns: the
        # matrices have exactly one column per binding bound
        assert "size_target" not in inspect.signature(build_join_inputs).parameters
        for _ in range(12):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            inputs = build_join_inputs(g, problem)
            dim = binding_bounds(g, problem)
            assert inputs.dim == inputs.query.shape[1] == inputs.data.shape[1] == dim

    def test_prune_never_changes_counts(self, rng):
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            assert naive_pair_join(g, problem) == brute_force_count(g, problem).count

    def test_prune_drops_only_rows(self, rng):
        g = random_graph(10, 0.6, rng)
        full_query, full_qmasks, _, full_dmasks, _ = full_join_inputs(g, DCut(0), prune=False)
        pruned = build_join_inputs(g, DCut(0))
        assert len(pruned.query) <= len(full_query)
        assert set(pruned.query_masks.tolist()) <= set(full_qmasks.tolist())
        assert set(pruned.data_masks.tolist()) <= set(full_dmasks.tolist())

    def test_improper_pairs_listed_when_they_match(self, rng):
        # (∅, ∅) and (V_A, V_B) are listed exactly when the improper cut
        # meets every per-vertex condition; pruning never drops such rows
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            problem = random_problem(rng, n)
            _, ok = next(_feasible_chunks(g, problem))
            meets = {0: bool(ok[0]), (1 << n) - 1: bool(ok[-1])}
            ka = n // 2
            inputs = build_join_inputs(g, problem)
            listed = {
                int(inputs.query_masks[qi]) | (int(inputs.data_masks[di]) << ka)
                for qi, di in inputs.improper
            }
            assert len(listed) == len(inputs.improper)
            assert listed == {m for m, hit in meets.items() if hit}


def assert_same_rows(got, want):
    for name in ("masks", "ns", "nr", "in_s", "in_r"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def assert_same_inputs(inputs, want):
    got = (inputs.query, inputs.query_masks, inputs.data, inputs.data_masks)
    for a, b in zip(got, want[:4]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    assert inputs.improper == want[4]


class TestPrunedEnumeration:
    """The level-by-level enumeration keeps exactly the rows, in the order,
    of a full enumeration pruned by `_upper_bound_keep`."""

    @settings(
        derandomize=True,
        database=None,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_matches_full_enumeration(self, data):
        # budgets up to 70 move the switch to the full product through every
        # level of halves of up to 6 vertices, and past the zero-level case
        g = data.draw(graphs())
        problem = data.draw(problems(g.n))
        budget = data.draw(st.integers(0, 70))
        ub = ub_of(g, problem)
        with mock.patch.object(encoding, "_ROW_BUDGET", budget):
            for side in split_halves(g):
                enum = _SideEnumeration.within_bounds(g, side, ub)
                assert_same_rows(enum, full_enumeration(g, side, ub))
                assert len(enum.masks) <= enum.generated
            inputs = build_join_inputs(g, problem)
        assert_same_inputs(inputs, full_join_inputs(g, problem, True))

    def test_zero_levels_build_every_subset(self, rng):
        # halves within the budget, no upper bounds, and internal partition,
        # which has no upper bound that binds, all enumerate 2^k rows per half
        for n in (1, 2, 9, 20):
            g = random_graph(n, 0.5, rng)
            ka = n // 2
            full = (1 << ka) + (1 << (n - ka))
            assert build_join_inputs(g, DCut(1)).generated == full
        g = random_graph(24, 0.5, rng)
        assert sum(
            _SideEnumeration.within_bounds(g, side, None).generated for side in split_halves(g)
        ) == 1 << 13
        assert build_join_inputs(g, InternalPartition()).generated == 1 << 13

    def test_empty_first_half(self):
        g = edgeless_graph(1)
        va, vb = split_halves(g)
        enum = _SideEnumeration.within_bounds(g, va, ub_of(g, DCut(0)))
        assert enum.masks.tolist() == [0] and enum.generated == 1
        for problem in (DCut(0), InternalPartition()):
            inputs = build_join_inputs(g, problem)
            assert inputs.generated == 3
            assert_same_inputs(inputs, full_join_inputs(g, problem, True))

    def test_vacuous_bounds_prune_nothing(self):
        # every level keeps both children, so all 12 levels are placed
        # (2 + 4 + ... + 2^12 partial rows) before the full rows are built
        g = random_graph(24, 0.3, random.Random(5))
        ub = ub_of(g, DCut(24))
        for side in split_halves(g):
            enum = _SideEnumeration.within_bounds(g, side, ub)
            assert_same_rows(enum, full_enumeration(g, side, None))
            assert enum.generated == (1 << 13) - 2 + (1 << 12)

    def test_dense_dcut0_keeps_only_one_sided_rows(self):
        g = complete_graph(24)
        ub = ub_of(g, DCut(0))
        for side in split_halves(g):
            enum = _SideEnumeration.within_bounds(g, side, ub)
            assert_same_rows(enum, full_enumeration(g, side, ub))
            assert enum.masks.tolist() == [0, (1 << 12) - 1]
            # levels 1-3 (2 + 4 + 4 rows) leave 2 prefixes times 2^9
            assert enum.generated == 2 + 4 + 4 + 1024
        inputs = build_join_inputs(g, DCut(0))
        assert_same_inputs(inputs, full_join_inputs(g, DCut(0), True))

    def test_everything_pruned(self):
        # no vertex of K_24 may have a neighbour on its own side, which no
        # subset of a 12-vertex half allows
        g = complete_graph(24)
        none, every = Interval(0, 0), Interval(0, 24)
        problem = IntervalConstrainedCut((VertexConstraints(none, every, none, every),) * 24)
        for side in split_halves(g):
            enum = _SideEnumeration.within_bounds(g, side, ub_of(g, problem))
            assert len(enum.masks) == 0 and enum.ns.shape == (0, 24)
        inputs = build_join_inputs(g, problem)
        assert len(inputs.query) == len(inputs.data) == 0
        assert_same_inputs(inputs, full_join_inputs(g, problem, True))
        result = solve(g, ProblemSpec(problem, mode="count"))
        assert result.count == 0 and not result.feasible

    def test_placed_neighbours_are_checked(self):
        # a star in the first half, centre 3 placed first: a leaf never has
        # more than one cross neighbour, so only the centre's count, which
        # changes when a leaf is placed, can drop a row before the last level
        g = Graph.from_edges(8, [(3, 0), (3, 1), (3, 2)])
        va, _ = split_halves(g)
        ub = ub_of(g, DCut(1))
        with mock.patch.object(encoding, "_ROW_BUDGET", 0):
            enum = _SideEnumeration.within_bounds(g, va, ub)
        assert_same_rows(enum, full_enumeration(g, va, ub))
        # levels of 2, 4 and 8 rows; leaves 1 and 2 both across from the
        # centre drop 2 of the 8, so the last level builds 12 rows and keeps 8
        assert enum.generated == 2 + 4 + 8 + 12 + 8

    @pytest.mark.parametrize(
        "budget, generated",
        [
            # the first level never prunes: no placed vertex has a count
            # yet, so the earliest switch follows level 2 (2 + 4 rows) and
            # builds 2 prefixes times 2^10
            ((1 << 12) - 1, 2 + 4 + 2048),
            # with one bit left, 2 prefixes times 2^1 fit a budget of 4
            (4, 2 + 4 * 10 + 4),
            # a zero budget places all 12 levels
            (0, 2 + 4 * 11 + 2),
        ],
        ids=["earliest", "last-bit", "every-level"],
    )
    def test_switch_points(self, budget, generated):
        g = complete_graph(24)
        ub = ub_of(g, DCut(0))
        with mock.patch.object(encoding, "_ROW_BUDGET", budget):
            for side in split_halves(g):
                enum = _SideEnumeration.within_bounds(g, side, ub)
                assert_same_rows(enum, full_enumeration(g, side, ub))
                assert enum.generated == generated
            inputs = build_join_inputs(g, DCut(0))
        assert inputs.generated == 2 * generated
        assert_same_inputs(inputs, full_join_inputs(g, DCut(0), True))


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
        # every proper row equals the single-pair vector (plus the offset on
        # the data side) restricted to the bounds that can fail
        g = data.draw(graphs())
        problem = data.draw(problems(g.n) | mixed_icc(g.n))
        inputs = build_join_inputs(g, problem)
        cols = reference_plan(g, problem)
        assert inputs.dim == cols.sum() == column_plan(g, problem).dim
        offset = make_offset(interval_constraints(g, problem), g.n).entries
        va, vb = split_halves(g)
        for masks, rows, half, encode, shift in (
            (inputs.query_masks, inputs.query, va, encode_icc_query, 0),
            (inputs.data_masks, inputs.data, vb, encode_icc_data, offset),
        ):
            assert rows.shape == (len(masks), cols.sum())
            for mask, row in zip(masks.tolist(), rows):
                s, r = half_sides(g, half, mask)
                if s.mask and r.mask:
                    want = (encode(g, va, vb, s, r).entries + shift)[cols]
                    assert row.tolist() == want.tolist()

    def test_dim_counts_binding_bounds(self, rng):
        for kind in ("dcut", "internal", "abdom", "icc"):
            for _ in range(10):
                n = rng.randint(1, 12)
                g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
                problem = random_problem(rng, n, kind=kind)
                assert build_join_inputs(g, problem).dim == binding_bounds(g, problem)

    @pytest.mark.parametrize("index_engine", ["bitset", "recursive", "naive"])
    def test_dcut_at_max_degree_plans_nothing(self, index_engine):
        # no cross count can exceed the largest degree: zero columns, and
        # every proper cut counts
        g = random_graph(16, 0.4, random.Random(16))
        problem = DCut(max(g.degree(v) for v in range(g.n)))
        assert column_plan(g, problem).dim == 0
        opts = SolverOptions(engine="splitlist", index_engine=index_engine)
        result = solve(g, ProblemSpec(problem, mode="count"), opts)
        assert result.stats.dim == result.stats.active_dim == 0
        assert result.count == (1 << 16) - 2

    def test_nothing_binds_places_no_levels(self):
        # with no upper bound that binds, a half of 12 or 13 vertices is
        # built in one product, without partial rows
        for n in (24, 25):
            g = random_graph(n, 0.3, random.Random(1000 + n))
            ka = n // 2
            for problem in (InternalPartition(), DCut(n)):
                inputs = build_join_inputs(g, problem)
                assert inputs.generated == (1 << ka) + (1 << (n - ka))

    def test_internal_skips_isolated_vertices(self):
        g = Graph.from_edges(10, [(0, 1), (1, 2), (5, 6)])
        assert build_join_inputs(g, InternalPartition()).dim == 2 * 5
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng.randint(2, 14), 0.15, rng)
            with_edges = sum(g.degree(v) > 0 for v in range(g.n))
            assert build_join_inputs(g, InternalPartition()).dim == 2 * with_edges
