import inspect

import numpy as np
import pytest

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
from splitcut.encoding import (
    _SideEnumeration,
    _icc_matrix,
    _internal_matrix,
    build_join_inputs,
)
from splitcut.oracle import _feasible_chunks, naive_pair_join

from conftest import edgeless_graph, path_graph
from helpers import random_problem


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
