import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitcut
from splitcut import build_index
from splitcut import dominance
from splitcut.dominance import _block_counts, _distinct

LO, HI = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def points(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


class TestIndexInput:
    def test_basics(self):
        idx = build_index(points([[1, 2], [3, 1]]))
        assert idx.dim == 2 and len(idx) == 2

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)], ids=["1d", "3d"])
    def test_rejects_non_2d_points(self, shape):
        with pytest.raises(ValueError):
            build_index(np.zeros(shape, dtype=np.int64))

    def test_int16_points(self):
        # the solver's join matrices are int16
        rng = np.random.default_rng(4)
        pts = rng.integers(-30, 31, size=(90, 12)).astype(np.int16)
        queries = rng.integers(-30, 31, size=(40, 12)).astype(np.int16)
        scan = [int(np.all(pts <= q, axis=1).sum()) for q in queries]
        idx = build_index(pts)
        assert len(idx) == 90 and idx.dim == 12
        assert idx.batch_count(queries).tolist() == scan


class TestDistinct:
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
        # a wide-range bitset block must not need it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from splitcut import dominance\n"
            "rng = np.random.default_rng(0)\n"
            "pts = rng.integers(-30000, 30000, size=(300, 40)).astype(np.int16)\n"
            "block = dominance._BitsetBlock(pts, np.zeros(300, dtype=np.int64), 1)\n"
            "assert block._values is not None, 'lookup-table path taken'\n"
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
        idx = build_index(np.empty((0, 4), dtype=np.int64))
        assert len(idx) == 0 and idx.dim == 4
        assert idx.count_dominated(np.zeros(4, dtype=np.int64)) == 0
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
        idx = build_index(pts)
        batch = idx.batch_count(queries)
        assert batch.tolist() == [idx.count_dominated(q) for q in queries]

    def test_empty_batch(self):
        idx = build_index(points([[1, 2]]))
        assert idx.batch_count(np.empty((0, 2))).tolist() == []

    def test_thousand_queries_match_naive_scan(self):
        rng = np.random.default_rng(10)
        pts = points(rng.integers(-32, 33, size=(512, 24)))
        queries = rng.integers(-32, 33, size=(1000, 24))
        scan = np.array([int(np.all(pts <= q[None, :], axis=1).sum()) for q in queries])
        assert np.array_equal(build_index(pts).batch_count(queries), scan)

    def test_half_enumeration_scale_build(self):
        # all 2^8 data vectors of one half at dimension 8n for n=16, kept
        # as given: no copy, no conversion
        n = 16
        rng = np.random.default_rng(11)
        raw = rng.integers(-2 * n, 2 * n + 1, size=(2 ** (n // 2), 8 * n), dtype=np.int16)
        idx = build_index(raw)
        assert len(idx) == 256 and idx.dim == 128
        assert idx._points is raw
        assert idx.count_dominated(np.full(8 * n, 2 * n)) == 256


def _scan(pts, queries):
    """Dominated-point counts by the pairwise reference scan."""
    return _block_counts(pts, queries, np.zeros(len(pts), dtype=np.int64), 1)[:, 0]


def _scan_by_label(pts, queries, labels):
    """(queries x labels) dominated-point counts by a direct scan."""
    hits = np.all(pts[None, :, :] <= queries[:, None, :], axis=2)
    n_labels = int(labels.max()) + 1 if len(labels) else 0
    return np.stack(
        [hits[:, labels == label].sum(axis=1) for label in range(n_labels)], axis=-1
    ).reshape(len(queries), n_labels)


class TestEngineEquivalence:
    def test_random_sets(self):
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
            scan = _scan(pts, queries)
            assert np.array_equal(scan, build_index(pts).batch_count(queries))

    @pytest.mark.parametrize(
        "rows",
        [[[LO]], [[LO + 1]], [[HI]], [[HI - 1]], [[LO], [HI]], [[LO, HI], [LO + 1, HI - 1]]],
        ids=["min", "min+1", "max", "max-1", "min-and-max", "pairs"],
    )
    def test_int64_extreme_sets(self, rows):
        # a block whose values sit at either end of int64, with queries at
        # both ends and next to them
        pts = points(rows)
        edge = np.array([LO, LO + 1, HI - 1, HI], dtype=np.int64)
        dim = pts.shape[1]
        grid = np.stack(np.meshgrid(*[edge] * dim), axis=-1).reshape(-1, dim)
        queries = np.concatenate([pts, grid])
        scan = _scan(pts, queries)
        assert np.array_equal(build_index(pts).batch_count(queries), scan)
        # each stored point dominates itself, and the top corner every point
        assert np.all(scan[: len(pts)] >= 1) and scan[-1] == len(pts)

    def test_labelled_matches_scan(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            n = int(rng.integers(0, 300))
            d = int(rng.choice([1, 3, 8]))
            pts = rng.integers(-4, 5, size=(n, d))
            labels = rng.integers(0, int(rng.integers(1, 12)), size=n)
            queries = rng.integers(-4, 5, size=(int(rng.integers(1, 120)), d))
            scan = _scan_by_label(pts, queries, labels)
            reference = _block_counts(pts, queries, labels, scan.shape[1])
            assert np.array_equal(reference, scan)
            idx = build_index(pts, labels=labels)
            assert np.array_equal(idx.batch_count(queries), scan)

    def test_bad_labels(self):
        pts = points([[1, 2], [3, 1]])
        for labels in ([0], [0, -1], [0.5, 1.0]):
            with pytest.raises(ValueError):
                build_index(pts, labels=np.array(labels))


class TestBitset:
    """The bit-sliced index against the pairwise scan on the inputs where
    its packing, ranking and chunking can go wrong."""

    @staticmethod
    def check(pts, queries):
        bits = build_index(pts).batch_count(queries)
        assert np.array_equal(bits, _scan(pts, queries))
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
            for block in build_index(pts)._blocks:
                assert not np.any(block.table[:, -1] & pad)

    def test_one_label_counts_row_popcounts(self, monkeypatch):
        # one label: each query's count is the popcount of its ANDed row,
        # with no prefix sum; two labels split the same totals
        rng = np.random.default_rng(16)
        pts = rng.integers(0, 5, size=(200, 6))
        queries = rng.integers(0, 5, size=(70, 6))
        one = build_index(pts, labels=np.zeros(200, dtype=np.int64))
        two = build_index(pts, labels=rng.integers(0, 2, size=200))
        split, scan = two.batch_count(queries), self.check(pts, queries)
        monkeypatch.setattr(np, "cumsum", None)
        counts = one.batch_count(queries)
        assert counts.shape == (70, 1)
        assert np.array_equal(counts[:, 0], split.sum(axis=1))
        assert np.array_equal(counts[:, 0], scan)

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
        assert "points=1" in text and "engine" not in text

    @staticmethod
    def check_labelled(pts, queries, labels):
        got = build_index(pts, labels=labels).batch_count(queries)
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
        index = build_index(pts, labels=labels)
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
            build_index(np.array([[0.5, 1.0]]))
        idx = build_index(points([[1, 2]]))
        with pytest.raises(ValueError):
            idx.batch_count(np.array([[0.5, 2.0]]))
        assert idx.batch_count(np.empty((0, 2))).tolist() == []

    def test_rejects_uint64_above_int64(self):
        # such a query was compared after wrapping to a negative int64,
        # and dominated no point where count_dominated finds two
        idx = build_index(np.array([[-5], [3]]))
        query = np.array([[2**63 + 10]], dtype=np.uint64)
        assert idx.count_dominated(query[0]) == 2
        with pytest.raises(ValueError, match="int64"):
            idx.batch_count(query)
        with pytest.raises(ValueError, match="int64"):
            build_index(np.array([[2**63], [1]], dtype=np.uint64))
        # uint64 values within int64 are taken as they are
        fits = np.array([[2**63 - 1]], dtype=np.uint64)
        assert idx.batch_count(fits).tolist() == [2]
        assert build_index(fits).batch_count(fits).tolist() == [1]


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
        both = build_index(np.concatenate([p1, p2])).batch_count(queries)
        parts = build_index(p1).batch_count(queries) + build_index(p2).batch_count(queries)
        assert np.array_equal(both, parts)


class TestDiagnostics:
    def test_describe(self):
        idx = build_index(points([[1, 2]]))
        assert idx.describe() == "DominanceIndex(points=1, dim=2)"

    def test_bad_engine_and_leaf(self):
        # the index has one engine and takes no engine or tuning argument
        for name in ("engine", "leaf_size"):
            with pytest.raises(TypeError):
                build_index(points([[1]]), **{name: "bitset"})
