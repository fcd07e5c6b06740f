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
    encode_internal_data,
    encode_internal_query,
    interval_constraints,
    make_offset,
    random_graph,
    split_halves,
    validate_cut,
)
from splitcut import Graph, encoding, solve
from splitcut.encoding import (
    _SideEnumeration,
    _icc_matrix,
    _internal_matrix,
    _matched_improper,
    _upper_bound_keep,
    _upper_bounds,
    build_join_inputs,
)
from splitcut.oracle import _feasible_chunks, naive_pair_join
from splitcut.problems import ProblemSpec

from conftest import complete_graph, edgeless_graph, path_graph
from helpers import random_problem
from test_differential import graphs, problems


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


class TestInternalVectors:
    def test_p4_query(self, p4):
        va, vb = halves(p4)
        q = encode_internal_query(p4, va, vb, vs([0], 4), vs([1], 4))
        assert q.entries.tolist() == [-1, 4, -1, 0, 4, -1, 1, 0]
        assert q.role == "query" and q.dim == 8

    def test_p4_query_swapped(self, p4):
        va, vb = halves(p4)
        q = encode_internal_query(p4, va, vb, vs([1], 4), vs([0], 4))
        assert q.entries.tolist() == [4, -1, 1, 0, -1, 4, -1, 0]

    def test_edgeless_query(self):
        g = edgeless_graph(4)
        va, vb = halves(g)
        q = encode_internal_query(g, va, vb, vs([0], 4), vs([1], 4))
        assert q.entries.tolist() == [0, 4, 0, 0, 4, 0, 0, 0]

    def test_p4_data(self, p4):
        va, vb = halves(p4)
        p = encode_internal_data(p4, va, vb, vs([2], 4), vs([3], 4))
        assert p.entries.tolist() == [0, -1, 1, -4, 0, 1, -4, 1]
        assert p.role == "data"

    def test_p4_data_swapped(self, p4):
        va, vb = halves(p4)
        p = encode_internal_data(p4, va, vb, vs([3], 4), vs([2], 4))
        assert p.entries.tolist() == [0, 1, -4, 1, 0, -1, 1, -4]

    def test_edgeless_data(self):
        g = edgeless_graph(4)
        va, vb = halves(g)
        p = encode_internal_data(g, va, vb, vs([2], 4), vs([3], 4))
        assert p.entries.tolist() == [0, 0, 0, -4, 0, 0, -4, 0]

    def test_improper_rejected(self, p4):
        va, vb = halves(p4)
        with pytest.raises(ValueError):
            encode_internal_query(p4, va, vb, vs([0, 1], 4), vs([], 4))
        with pytest.raises(ValueError):
            encode_internal_data(p4, va, vb, vs([2], 4), vs([2], 4))


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
        for _ in range(12):
            n = rng.randint(4, 9)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            va, vb = halves(g)
            for s, r in proper_bipartitions(va):
                q = encode_internal_query(g, va, vb, s, r).entries
                for s2, r2 in proper_bipartitions(vb):
                    p = encode_internal_data(g, va, vb, s2, r2).entries
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
            qi = encode_internal_query(g, va, vb, s, r)
            pi = encode_internal_data(g, va, vb, s2, r2)
            qc = encode_icc_query(g, va, vb, s, r)
            pc = encode_icc_data(g, va, vb, s2, r2)
            assert qi.dim == 2 * n and pi.dim == 2 * n
            assert qc.dim == 8 * n and pc.dim == 8 * n
            for vec in (qi, pi, qc, pc):
                assert np.all(vec.entries >= -2 * n)
                assert np.all(vec.entries <= 2 * n)


class TestBatchMatchesSingle:
    def test_internal_and_icc(self, rng):
        for _ in range(8):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.5, rng)
            va, vb = halves(g)
            for side, role, single in [
                (va, "query", encode_internal_query),
                (vb, "data", encode_internal_data),
            ]:
                masks = proper_submasks(len(side))
                enum = _SideEnumeration(g, side, masks)
                batch = _internal_matrix(n, enum, role)
                for row, (s, r) in zip(batch, proper_bipartitions(side)):
                    assert row.tolist() == single(g, va, vb, s, r).entries.tolist()
            for side, role, single in [
                (va, "query", encode_icc_query),
                (vb, "data", encode_icc_data),
            ]:
                masks = proper_submasks(len(side))
                enum = _SideEnumeration(g, side, masks)
                batch = _icc_matrix(n, enum, role)
                for row, (s, r) in zip(batch, proper_bipartitions(side)):
                    assert row.tolist() == single(g, va, vb, s, r).entries.tolist()


class TestJoinInputs:
    def test_no_size_columns(self, rng):
        # side sizes come from the masks, never from extra columns: the
        # matrices have exactly the layout's 2n or 8n columns
        assert "size_target" not in inspect.signature(build_join_inputs).parameters
        for _ in range(12):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            for route in ("direct", "icc"):
                inputs = build_join_inputs(g, problem, internal_route=route)
                direct = isinstance(problem, InternalPartition) and route == "direct"
                dim = 2 * n if direct else 8 * n
                assert inputs.dim == inputs.query.shape[1] == inputs.data.shape[1] == dim

    def test_prune_never_changes_counts(self, rng):
        for _ in range(12):
            n = rng.randint(2, 11)
            g = random_graph(n, 0.5, rng)
            problem = random_problem(rng, n)
            pruned = naive_pair_join(g, problem, prune=True)
            unpruned = naive_pair_join(g, problem, prune=False)
            assert pruned == unpruned

    def test_prune_drops_only_rows(self, rng):
        g = random_graph(10, 0.6, rng)
        full = build_join_inputs(g, DCut(0), prune=False)
        pruned = build_join_inputs(g, DCut(0), prune=True)
        assert len(pruned.query) <= len(full.query)
        assert set(pruned.query_masks.tolist()) <= set(full.query_masks.tolist())
        assert set(pruned.data_masks.tolist()) <= set(full.data_masks.tolist())

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
            for prune in (False, True):
                inputs = build_join_inputs(g, problem, prune=prune)
                listed = {
                    int(inputs.query_masks[qi]) | (int(inputs.data_masks[di]) << ka)
                    for qi, di in inputs.improper
                }
                assert len(listed) == len(inputs.improper)
                assert listed == {m for m, hit in meets.items() if hit}


def full_enumeration(g, side, ub):
    """Every subset of the half, then the rows `_upper_bound_keep` keeps."""
    enum = _SideEnumeration(g, side, np.arange(1 << len(side), dtype=np.uint64))
    return enum if ub is None else enum.select(_upper_bound_keep(enum, ub))


def full_join_inputs(g, problem, prune, route):
    """`build_join_inputs` over full enumerations of both halves."""
    n = g.n
    va, vb = split_halves(g)
    if isinstance(problem, InternalPartition) and route == "direct":
        q, d = full_enumeration(g, va, None), full_enumeration(g, vb, None)
        query, data = _internal_matrix(n, q, "query"), _internal_matrix(n, d, "data")
    else:
        cons = interval_constraints(g, problem)
        ub = _upper_bounds(cons) if prune else None
        q, d = full_enumeration(g, va, ub), full_enumeration(g, vb, ub)
        query = _icc_matrix(n, q, "query")
        data = _icc_matrix(n, d, "data") + make_offset(cons, n).entries[None, :]
    improper = _matched_improper(query, q.masks, len(va), data, d.masks, len(vb))
    return query, q.masks, data, d.masks, improper


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


def ub_of(g, problem):
    return _upper_bounds(interval_constraints(g, problem))


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
        prune = data.draw(st.booleans())
        route = data.draw(st.sampled_from(["direct", "icc"]))
        ub = ub_of(g, problem)
        with mock.patch.object(encoding, "_ROW_BUDGET", budget):
            for side in split_halves(g):
                enum = _SideEnumeration.within_bounds(g, side, ub)
                assert_same_rows(enum, full_enumeration(g, side, ub))
                assert len(enum.masks) <= enum.generated
            inputs = build_join_inputs(g, problem, prune=prune, internal_route=route)
        assert_same_inputs(inputs, full_join_inputs(g, problem, prune, route))

    def test_zero_levels_build_every_subset(self, rng):
        # halves within the budget, no pruning, and the 2n layout all
        # enumerate 2^k rows per half
        for n in (1, 2, 9, 20):
            g = random_graph(n, 0.5, rng)
            ka = n // 2
            full = (1 << ka) + (1 << (n - ka))
            assert build_join_inputs(g, DCut(1)).generated == full
        g = random_graph(24, 0.5, rng)
        assert build_join_inputs(g, DCut(0), prune=False).generated == 1 << 13
        assert build_join_inputs(g, InternalPartition()).generated == 1 << 13

    def test_empty_first_half(self):
        g = edgeless_graph(1)
        va, vb = split_halves(g)
        enum = _SideEnumeration.within_bounds(g, va, ub_of(g, DCut(0)))
        assert enum.masks.tolist() == [0] and enum.generated == 1
        for problem in (DCut(0), InternalPartition()):
            for route in ("direct", "icc"):
                inputs = build_join_inputs(g, problem, internal_route=route)
                assert inputs.generated == 3
                assert_same_inputs(inputs, full_join_inputs(g, problem, True, route))

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
        assert_same_inputs(inputs, full_join_inputs(g, DCut(0), True, "icc"))

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
        assert_same_inputs(inputs, full_join_inputs(g, problem, True, "icc"))
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
        assert_same_inputs(inputs, full_join_inputs(g, DCut(0), True, "icc"))
