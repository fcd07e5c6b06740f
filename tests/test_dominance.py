import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitcut
from splitcut import DominanceIndex, PointSet, build_index
from splitcut import dominance
from splitcut.dominance import _block_counts, _distinct

ENGINES = ("bitset", "naive", "recursive")


def points(rows, ids=None):
    return PointSet.of(np.array(rows, dtype=np.int64).reshape(len(rows), -1), ids)


class TestPointSet:
    def test_basics(self):
        ps = points([[1, 2], [3, 1]])
        assert ps.dim == 2 and len(ps) == 2
        assert ps.ids.tolist() == [0, 1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            points([[1], [2]], ids=np.array([7, 7]))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            PointSet.of(np.array([1, 2, 3]))

    def test_distinct_matches_unique(self):
        rng = np.random.default_rng(3)
        for a in (
            np.empty(0, dtype=np.int64),
            np.array([4]),
            rng.integers(-3, 4, size=(9, 5)),
            rng.integers(-(1 << 62), 1 << 62, size=200, dtype=np.int64),
        ):
            got = _distinct(a)
            assert got.dtype == a.dtype
            assert np.array_equal(got, np.unique(a))

    def test_numpy_ma_never_imported(self):
        # np.unique imports numpy.ma on first use, about 1 MiB that stays;
        # a wide-range bitset block and an id check must not need it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from splitcut import dominance\n"
            "rng = np.random.default_rng(0)\n"
            "pts = rng.integers(-30000, 30000, size=(300, 40)).astype(np.int16)\n"
            "block = dominance._BitsetBlock(pts)\n"
            "assert block._values is not None, 'lookup-table path taken'\n"
            "dominance.PointSet.of(pts, np.arange(300)[::-1].copy())\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(splitcut.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestCounting:
    def test_inclusive_dominance(self):
        idx = build_index(points([[0, 0]]))
        assert idx.count_dominated(np.array([0, 0])) == 1

    def test_small_examples(self):
        idx = build_index(points([[1, 2], [3, 1]]))
        assert idx.count_dominated(np.array([2, 2])) == 1
        assert idx.count_dominated(np.array([0, 0])) == 0
        assert idx.count_dominated(np.array([3, 2])) == 2

    def test_empty_index(self):
        idx = build_index(PointSet.of(np.empty((0, 4), dtype=np.int64)))
        assert idx.count_dominated(np.zeros(4, dtype=np.int64)) == 0
        assert idx.find_dominated(np.zeros(4, dtype=np.int64)) is None
        assert idx.batch_count(np.zeros((3, 4), dtype=np.int64)).tolist() == [0, 0, 0]

    def test_dimension_mismatch(self):
        idx = build_index(points([[1, 2]]))
        with pytest.raises(ValueError):
            idx.count_dominated(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            idx.batch_count(np.zeros((2, 3)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        pts = points(rng.integers(-5, 6, size=(50, 6)))
        queries = rng.integers(-5, 6, size=(40, 6))
        for engine in ENGINES:
            idx = build_index(pts, engine=engine, leaf_threshold=2)
            batch = idx.batch_count(queries)
            assert batch.tolist() == [idx.count_dominated(q) for q in queries]

    def test_empty_batch(self):
        idx = build_index(points([[1, 2]]))
        assert idx.batch_count(np.empty((0, 2))).tolist() == []

    def test_thousand_queries_match_naive_scan(self):
        rng = np.random.default_rng(10)
        pts = points(rng.integers(-32, 33, size=(512, 24)))
        queries = rng.integers(-32, 33, size=(1000, 24))
        scan = np.array(
            [int(np.all(pts.points <= q[None, :], axis=1).sum()) for q in queries]
        )
        for engine in ENGINES:
            idx = build_index(pts, engine=engine)
            assert np.array_equal(idx.batch_count(queries), scan)

    def test_half_enumeration_scale_build(self):
        # all 2^8 data vectors of one half at dimension 8n for n=16: the
        # store is exactly the N x d integer payload plus ids
        n = 16
        rng = np.random.default_rng(11)
        raw = rng.integers(-2 * n, 2 * n + 1, size=(2 ** (n // 2), 8 * n), dtype=np.int16)
        ps = PointSet.of(raw)
        idx = build_index(ps)
        assert len(idx) == 256 and idx.dim == 128
        payload = ps.points.nbytes + ps.ids.nbytes
        assert payload <= raw.size * raw.itemsize + len(raw) * 8
        assert idx.count_dominated(np.full(8 * n, 2 * n)) == 256


class TestFindDominated:
    def test_unique_witness(self):
        idx = build_index(points([[1, 2], [3, 1]], ids=np.array([10, 20])))
        assert idx.find_dominated(np.array([2, 2])) == 10

    def test_any_valid_witness(self):
        idx = build_index(points([[1, 1], [0, 0]], ids=np.array([5, 6])))
        assert idx.find_dominated(np.array([1, 1])) in (5, 6)

    def test_consistent_with_count(self):
        rng = np.random.default_rng(2)
        pts = points(rng.integers(0, 4, size=(30, 5)))
        idx = build_index(pts)
        for q in rng.integers(0, 4, size=(60, 5)):
            found = idx.find_dominated(q)
            if idx.count_dominated(q) == 0:
                assert found is None
            else:
                row = pts.points[pts.ids.tolist().index(found)]
                assert np.all(row <= q)


def _scan_by_label(pts, queries, labels):
    """(queries x labels) dominated-point counts by a direct scan."""
    hits = np.all(pts[None, :, :] <= queries[:, None, :], axis=2)
    n_labels = int(labels.max()) + 1 if len(labels) else 0
    return np.stack(
        [hits[:, labels == label].sum(axis=1) for label in range(n_labels)], axis=-1
    ).reshape(len(queries), n_labels)


class TestEngineEquivalence:
    @pytest.mark.parametrize("leaf", [1, 32, 1024])
    def test_random_sets(self, leaf):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(0, 400))
            m = int(rng.integers(1, 400))
            d = int(rng.choice([1, 2, 4, 8, 16]))
            style = trial % 3
            if style == 0:
                lo, hi = -8, 9
            elif style == 1:
                lo, hi = 0, 2  # heavy ties
            else:
                lo, hi = 5, 6  # constant coordinates
            pts = points(rng.integers(lo, hi, size=(n, d)))
            queries = rng.integers(lo - 1, hi + 1, size=(m, d))
            naive = build_index(pts, engine="naive").batch_count(queries)
            rec = build_index(pts, engine="recursive", leaf_threshold=leaf)
            assert np.array_equal(naive, rec.batch_count(queries))
            bits = build_index(pts, engine="bitset", leaf_threshold=leaf)
            assert np.array_equal(naive, bits.batch_count(queries))

    def test_shuffled_coordinates(self):
        rng = np.random.default_rng(4)
        pts = points(rng.integers(-4, 5, size=(200, 12)))
        queries = rng.integers(-4, 5, size=(150, 12))
        base = build_index(pts, engine="naive").batch_count(queries)
        for seed in range(3):
            idx = build_index(
                pts, engine="recursive", shuffle_coords=True, seed=seed
            )
            assert np.array_equal(base, idx.batch_count(queries))

    def test_labelled_matches_scan(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            n = int(rng.integers(0, 300))
            d = int(rng.choice([1, 3, 8]))
            pts = rng.integers(-4, 5, size=(n, d))
            labels = rng.integers(0, int(rng.integers(1, 12)), size=n)
            queries = rng.integers(-4, 5, size=(int(rng.integers(1, 120)), d))
            scan = _scan_by_label(pts, queries, labels)
            for engine in ENGINES:
                idx = build_index(PointSet.of(pts), engine=engine, leaf_threshold=2, labels=labels)
                for threads in (1, 3):
                    assert np.array_equal(idx.batch_count(queries, threads=threads), scan)

    def test_bad_labels(self):
        pts = points([[1, 2], [3, 1]])
        for labels in ([0], [0, -1], [0.5, 1.0]):
            with pytest.raises(ValueError):
                build_index(pts, labels=np.array(labels))

    def test_threads_equivalent(self):
        rng = np.random.default_rng(5)
        pts = points(rng.integers(-4, 5, size=(150, 8)))
        queries = rng.integers(-4, 5, size=(97, 8))
        for engine in ENGINES:
            idx = build_index(pts, engine=engine)
            assert np.array_equal(
                idx.batch_count(queries, threads=1),
                idx.batch_count(queries, threads=4),
            )


class TestBitset:
    """The bit-sliced engine against the plain-numpy scan on the inputs
    where its packing, ranking and chunking can go wrong."""

    @staticmethod
    def check(pts, queries):
        bits = build_index(PointSet.of(pts), engine="bitset").batch_count(queries)
        assert np.array_equal(bits, _block_counts(pts, queries))
        return bits

    @pytest.mark.parametrize("n_points", [0, 1, 63, 64, 65, 129])
    def test_padding_bits(self, n_points):
        rng = np.random.default_rng(n_points)
        pts = rng.integers(-3, 4, size=(n_points, 5))
        queries = rng.integers(-4, 5, size=(50, 5))
        self.check(pts, queries)
        # a query above every point counts each point once, never a pad bit
        top = np.full((1, 5), 10)
        assert self.check(pts, top).tolist() == [n_points]
        # every table row is exactly the set of points it names
        if n_points % 64:
            pad = ~np.uint64((1 << (n_points % 64)) - 1)
            for block in build_index(PointSet.of(pts))._blocks:
                assert not np.any(block.table[:, -1] & pad)

    def test_all_columns_trivial(self):
        # no coordinate left: every stored point is dominated
        pts = np.zeros((70, 0), dtype=np.int16)
        queries = np.zeros((3, 0), dtype=np.int16)
        assert self.check(pts, queries).tolist() == [70, 70, 70]

    def test_empty_queries(self):
        pts = np.arange(12).reshape(4, 3)
        assert self.check(pts, np.empty((0, 3), dtype=np.int64)).tolist() == []

    def test_queries_below_every_value(self):
        rng = np.random.default_rng(12)
        pts = rng.integers(-5, 6, size=(100, 4))
        below = np.full((7, 4), -6)
        assert self.check(pts, below).tolist() == [0] * 7
        # one coordinate below every stored value is enough
        mixed = np.full((5, 4), 6)
        mixed[:, 2] = -6
        assert self.check(pts, mixed).tolist() == [0] * 5

    def test_int64_extremes(self):
        rng = np.random.default_rng(13)
        big = 1 << 62
        pts = rng.integers(-big, big, size=(150, 6), dtype=np.int64)
        pts[:10] = rng.choice([-big, big - 1], size=(10, 6))
        queries = np.concatenate(
            [pts[:40], pts[40:80] - 1, rng.integers(-big, big, size=(40, 6))]
        )
        self.check(pts, queries)

    @pytest.mark.parametrize("lut_entries", [0, 1 << 17])
    def test_lookup_and_search_rows(self, monkeypatch, lut_entries):
        # the same data mapped to table rows through the lookup table and by
        # binary search
        monkeypatch.setattr(dominance, "_LUT_ENTRIES", lut_entries)
        rng = np.random.default_rng(14)
        pts = rng.integers(-20, 21, size=(300, 9)).astype(np.int16)
        queries = rng.integers(-22, 23, size=(200, 9)).astype(np.int16)
        self.check(pts, queries)

    def test_blocks_and_chunks(self, monkeypatch):
        # many blocks with a partial last one and many small query chunks
        monkeypatch.setattr(dominance, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(dominance, "_CHUNK_WORDS", 200)
        rng = np.random.default_rng(15)
        pts = rng.integers(0, 4, size=(430, 7))
        queries = rng.integers(0, 4, size=(90, 7))
        self.check(pts, queries)

    def test_describe(self):
        text = build_index(points([[1, 2]])).describe()
        assert "engine=bitset" in text

    @staticmethod
    def check_labelled(pts, queries, labels):
        got = build_index(PointSet.of(pts), engine="bitset", labels=labels).batch_count(
            queries
        )
        assert np.array_equal(got, _scan_by_label(pts, queries, labels))
        return got

    def test_labels_off_word_edges(self):
        # label runs of 1, 63, 5, 70 and 13 points: no boundary on a 64-bit
        # word edge, and labels interleaved in the given order
        rng = np.random.default_rng(16)
        labels = np.repeat(np.arange(5), [1, 63, 5, 70, 13])
        rng.shuffle(labels)
        pts = rng.integers(-3, 4, size=(len(labels), 6))
        queries = rng.integers(-4, 5, size=(80, 6))
        self.check_labelled(pts, queries, labels)

    def test_empty_labels(self):
        # labels 0, 2 and 5 hold no point; their columns stay zero
        rng = np.random.default_rng(17)
        labels = rng.choice([1, 3, 4, 6], size=200)
        pts = rng.integers(-3, 4, size=(200, 5))
        got = self.check_labelled(pts, rng.integers(-4, 5, size=(60, 5)), labels)
        assert got.shape == (60, 7)
        assert not got[:, [0, 2, 5]].any()

    def test_label_spans_two_blocks(self):
        # 4,096-row blocks: label 1 runs from row 4000 to 4199, across the
        # block boundary; the second block has 300 rows, not a multiple of 64
        rng = np.random.default_rng(18)
        labels = np.zeros(4396, dtype=np.int64)
        labels[4000:4200] = 1
        labels[4200:] = 2
        pts = rng.integers(0, 3, size=(4396, 4))
        index = build_index(PointSet.of(pts), labels=labels)
        assert len(index._blocks) == 2
        queries = np.concatenate([rng.integers(0, 3, size=(40, 4)), np.full((1, 4), 2)])
        got = self.check_labelled(pts, queries, labels)
        assert got[-1].tolist() == [4000, 200, 196]

    @pytest.mark.parametrize("n_points", [1, 63, 65, 129])
    def test_labelled_padding_bits(self, n_points):
        rng = np.random.default_rng(n_points)
        labels = rng.integers(0, 3, size=n_points)
        pts = rng.integers(-3, 4, size=(n_points, 5))
        got = self.check_labelled(pts, np.full((1, 5), 10), labels)
        assert got.tolist() == [np.bincount(labels, minlength=got.shape[1]).tolist()]

    def test_labelled_dim_zero(self):
        # no coordinate left: each query gets the label histogram
        labels = np.array([2, 0, 2, 2, 4])
        got = self.check_labelled(
            np.zeros((5, 0), dtype=np.int16), np.zeros((3, 0), dtype=np.int16), labels
        )
        assert got.tolist() == [[1, 0, 3, 0, 1]] * 3

    def test_labelled_spans_and_chunks(self, monkeypatch):
        # small blocks, one-query chunks and spans that end mid-batch
        monkeypatch.setattr(dominance, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(dominance, "_CHUNK_WORDS", 20)
        rng = np.random.default_rng(19)
        pts = rng.integers(0, 4, size=(430, 7))
        labels = rng.integers(0, 9, size=430)
        self.check_labelled(pts, rng.integers(0, 4, size=(90, 7)), labels)

    def test_rejects_non_integer_input(self):
        with pytest.raises(ValueError):
            build_index(PointSet.of(np.array([[0.5, 1.0]])))
        idx = build_index(points([[1, 2]]))
        with pytest.raises(ValueError):
            idx.batch_count(np.array([[0.5, 2.0]]))
        assert idx.batch_count(np.empty((0, 2))).tolist() == []


class TestOrderProperties:
    def test_monotonicity(self):
        rng = np.random.default_rng(6)
        pts = points(rng.integers(-5, 6, size=(120, 7)))
        idx = build_index(pts)
        q = rng.integers(-5, 6, size=7)
        prev = idx.count_dominated(q)
        for _ in range(10):
            q = q + rng.integers(0, 3, size=7)
            cur = idx.count_dominated(q)
            assert cur >= prev
            prev = cur

    def test_saturation(self):
        rng = np.random.default_rng(7)
        raw = rng.integers(-5, 6, size=(80, 5))
        idx = build_index(points(raw))
        assert idx.count_dominated(raw.max(axis=0)) == 80
        assert idx.count_dominated(raw.min(axis=0) - 1) == 0

    def test_additivity(self):
        rng = np.random.default_rng(8)
        p1 = rng.integers(-5, 6, size=(60, 6))
        p2 = rng.integers(-5, 6, size=(40, 6))
        queries = rng.integers(-5, 6, size=(30, 6))
        both = build_index(
            PointSet.of(np.concatenate([p1, p2]))
        ).batch_count(queries)
        parts = build_index(PointSet.of(p1)).batch_count(queries) + build_index(
            PointSet.of(p2)
        ).batch_count(queries)
        assert np.array_equal(both, parts)


class TestDiagnostics:
    def test_describe(self):
        idx = build_index(points([[1, 2]]), engine="recursive", leaf_threshold=4)
        text = idx.describe()
        assert "recursive" in text and "leaf_threshold=4" in text

    def test_stats(self):
        rng = np.random.default_rng(9)
        pts = points(rng.integers(0, 5, size=(300, 6)))
        queries = rng.integers(0, 5, size=(200, 6))
        idx = build_index(pts, engine="recursive", leaf_threshold=4)
        counts, stats = idx.batch_count_with_stats(queries)
        assert stats["nodes"] >= stats["leaves"] >= 1
        assert stats["max_depth"] >= 1
        assert np.array_equal(
            counts, build_index(pts, engine="naive").batch_count(queries)
        )

    def test_bad_engine_and_leaf(self):
        with pytest.raises(ValueError):
            build_index(points([[1]]), engine="bogus")
        with pytest.raises(ValueError):
            build_index(points([[1]]), leaf_threshold=0)
