"""Dominance range counting and reporting over integer point sets.

A stored point y is dominated by a query q when y_i <= q_i on every
coordinate (inclusive).  Three interchangeable engines answer batch counting
queries.  The default bit-sliced engine (Matoušek, "Computing dominances in
E^n", IPL 1991) keeps, per coordinate and stored value v, the bitset of
points whose coordinate is at most v; a query ANDs one such bitset per
coordinate and popcounts the result.  The other two are a chunked naive scan
and an offline divide-and-conquer that recursively splits points at a pivot
coordinate value and retires a coordinate whenever the split resolves it for
one side.  All three are exact; the naive engine doubles as the oracle for
the others.  Stored points may carry integer labels, and a labelled index
counts each query's dominated points per label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DominanceIndex", "PointSet", "build_index"]

_CHUNK_ELEMS = 1 << 24

# Bitset engine sizes.  Each block of _BLOCK_ROWS stored points gets its own
# tables; a query chunk's row indices and gathered bitsets stay within
# _CHUNK_WORDS 8-byte words; a block whose value range times its dimension
# is at most _LUT_ENTRIES finds table rows through a lookup table of that
# many entries instead of binary searches.
_BLOCK_ROWS = 1 << 12
_CHUNK_WORDS = 1 << 17
_LUT_ENTRIES = 1 << 17


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a`, ascending.  Unlike `np.unique`, this does
    not import `numpy.ma`, which keeps about 1 MiB of memory for good."""
    s = np.sort(a, axis=None)
    first = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Fixed-dimension integer vectors, each with an opaque integer id."""

    points: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, points: np.ndarray, ids: np.ndarray | None = None) -> "PointSet":
        points = np.asarray(points)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if ids is None:
            ids = np.arange(len(points), dtype=np.int64)
        else:
            ids = np.asarray(ids)
            if ids.shape != (len(points),):
                raise ValueError("ids length differs from point count")
            if len(_distinct(ids)) != len(ids):
                raise ValueError("ids are not unique")
        return cls(points, ids)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _scan_step(points: int, dim: int) -> int:
    """Queries one chunk of a direct scan compares against every point."""
    return max(1, _CHUNK_ELEMS // max(1, points * dim))


def _block_counts(
    points: np.ndarray,
    queries: np.ndarray,
    labels: np.ndarray | None = None,
    n_labels: int = 0,
) -> np.ndarray:
    """Per-query dominated-point counts by direct comparison, chunked to
    keep the broadcast workspace bounded.  With `labels`, column l of the
    (queries x n_labels) result counts the points labelled l."""
    nq = len(queries)
    counts = np.zeros((nq, n_labels) if labels is not None else nq, dtype=np.int64)
    if len(points) == 0 or nq == 0:
        return counts
    step = _scan_step(*points.shape)
    for lo in range(0, nq, step):
        qc = queries[lo : lo + step]
        hits = np.all(points[None, :, :] <= qc[:, None, :], axis=2)
        if labels is None:
            counts[lo : lo + step] = hits.sum(axis=1)
            continue
        for label in range(n_labels):
            counts[lo : lo + step, label] = hits[:, labels == label].sum(axis=1)
    return counts


def _offline_counts(
    points: np.ndarray,
    queries: np.ndarray,
    coord_order: np.ndarray,
    leaf_threshold: int,
    counts: np.ndarray,
    stats: dict | None = None,
    labels: np.ndarray | None = None,
) -> None:
    """Offline divide-and-conquer dominance counting, accumulated into `counts`
    (one column per label when `labels` is given).

    At each node, points are split at the lower median m of the pivot
    coordinate.  Queries below m can only dominate points strictly below m
    (the pivot coordinate stays open); queries at or above m resolve the
    pivot coordinate against all points at or below m, so that subproblem
    drops the coordinate.  Every branch strictly shrinks the point set or
    the coordinate set, so the recursion terminates at any leaf threshold.
    """
    if len(points) == 0 or len(queries) == 0:
        return
    n_labels = 0 if labels is None else counts.shape[1]
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray, int, int]] = [
        (
            np.arange(len(queries), dtype=np.int64),
            np.arange(len(points), dtype=np.int64),
            coord_order,
            0,
            0,
        )
    ]
    while stack:
        qs, ps, coords, pos, depth = stack.pop()
        if qs.size == 0 or ps.size == 0:
            continue
        if stats is not None:
            stats["nodes"] += 1
            stats["max_depth"] = max(stats["max_depth"], depth)
        if coords.size == 0:
            # every remaining coordinate was resolved: all points dominated
            if labels is None:
                counts[qs] += ps.size
            else:
                counts[qs] += np.bincount(labels[ps], minlength=n_labels)
            continue
        if min(qs.size, ps.size) <= leaf_threshold:
            if stats is not None:
                stats["leaves"] += 1
            sub = _block_counts(
                points[np.ix_(ps, coords)],
                queries[np.ix_(qs, coords)],
                None if labels is None else labels[ps],
                n_labels,
            )
            counts[qs] += sub
            continue
        at = pos % coords.size
        i = coords[at]
        vals = points[ps, i]
        m = np.partition(vals, (vals.size - 1) // 2)[(vals.size - 1) // 2]
        above = vals > m
        p_lo = ps[~above]
        p_hi = ps[above]
        p_strict = ps[vals < m]
        q_above = queries[qs, i] >= m
        q_lo = qs[~q_above]
        q_hi = qs[q_above]
        stack.append((q_lo, p_strict, coords, pos + 1, depth + 1))
        stack.append((q_hi, p_hi, coords, pos + 1, depth + 1))
        stack.append((q_hi, p_lo, np.delete(coords, at), at, depth + 1))


def _exact_rows(rows: np.ndarray, nrows: int) -> np.ndarray:
    """(nrows, words) bitsets with bit i of row rows[i, j] set for every
    point i and coordinate j."""
    b, d = rows.shape
    words = (b + 63) // 64
    i = np.arange(b)
    # The bits falling into one 16-bit slice of a row are distinct, so their
    # sum, which bincount forms exactly in float64, is their OR; counting
    # coordinate by coordinate keeps the writes close together.
    slices = np.multiply(rows.T, 4 * words, order="C", dtype=np.int64)
    slices += i >> 4
    sums = np.bincount(
        slices.ravel(), np.tile(np.exp2(i & 15), d), minlength=4 * words * nrows
    )
    slices16 = sums.astype("<u2").view("<u8").reshape(nrows, words)
    return slices16.astype(np.uint64, copy=False)


class _BitsetBlock:
    """Bit-sliced tables over one block of stored points.

    Each coordinate's values are rank-compressed: table row `offset_j + j + r`
    holds the bitset of points whose coordinate j is at most its r-th
    smallest distinct value, and row `offset_j + j` is empty.  A value x in
    coordinate j is first mapped to a key `j * stride + position(x)`, where
    a stored value v is at most x exactly when position(v) <= position(x).
    Over a narrow value range the position is the offset above the range
    and one lookup table maps every key to its row; otherwise positions and
    rows come from binary searches over the sorted distinct values and keys.
    """

    def __init__(
        self, points: np.ndarray, labels: np.ndarray | None = None, n_labels: int = 0
    ):
        b, d = points.shape
        self._bound_word = None
        if labels is not None:
            # rows sorted by label, in their given order within a label, so
            # each label owns one run of bits [bounds[l], bounds[l + 1])
            order = np.argsort(labels, kind="stable")
            points = points[order]
            bounds = np.searchsorted(labels[order], np.arange(n_labels + 1))
            self._bound_word = bounds >> 6
            self._bound_read = np.minimum(self._bound_word, (b - 1) >> 6)
            low_bits = (bounds & 63).astype(np.uint64)
            self._bound_mask = (np.uint64(1) << low_bits) - np.uint64(1)
        lo, hi = int(points.min()), int(points.max())
        self._cols = np.arange(d, dtype=np.int64)
        self._values = None
        if (hi - lo + 2) * d <= _LUT_ENTRIES:
            self._lo, self._hi = lo - 1, hi
            stride = hi - lo + 2
        else:
            self._values = _distinct(points)
            stride = len(self._values) + 1
        self._base = self._cols * stride
        keys = self._keys(points)
        if self._values is None:
            present = np.zeros(d * stride, dtype=np.int32)
            present[keys] = 1
            self._row_of = np.cumsum(present, dtype=np.int32)
            self._row_of += np.repeat(self._cols.astype(np.int32), stride)
            nrows = int(self._row_of[-1]) + 1
        else:
            self._sorted_keys = _distinct(keys)
            nrows = len(self._sorted_keys) + d
        table = _exact_rows(self._rows(keys), nrows)
        # Each point sits in exactly one row per coordinate, so a running XOR
        # down the rows turns "value = v" into "value <= v"; seeding every
        # later coordinate's empty row with all points restarts it at zero.
        full = np.full(table.shape[1], ~np.uint64(0), dtype=np.uint64)
        if b % 64:
            full[-1] = (np.uint64(1) << np.uint64(b % 64)) - np.uint64(1)
        table[self._rows(self._base)[1:]] = full
        self.table = np.bitwise_xor.accumulate(table, axis=0, out=table)

    def _keys(self, x: np.ndarray) -> np.ndarray:
        if self._values is None:
            keys = np.maximum(x, self._lo, dtype=np.int64)
            np.minimum(keys, self._hi, out=keys)
            keys += self._base - self._lo
        else:
            keys = np.searchsorted(self._values, x, side="right")
            keys += self._base
        return keys

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        if self._values is None:
            return self._row_of[keys]
        return np.searchsorted(self._sorted_keys, keys, side="right") + self._cols

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The table row of each coordinate of each vector in x."""
        return self._rows(self._keys(x))

    @property
    def step(self) -> int:
        """Queries per chunk of `counts`."""
        return _bitset_step(len(self._cols), self.table.shape[1])

    def _anded(self, queries: np.ndarray) -> np.ndarray:
        """Each query's AND of its coordinates' table rows: gather every
        coordinate's row and AND the halves of the stack together until one
        layer is left.  With the coordinate axis first, each AND runs over
        one contiguous span, and it takes about log2(dim) calls rather than
        one per coordinate."""
        acc = np.take(self.table, self.rows(queries).T, axis=0)
        n = len(acc)
        while n > 1:
            h = n // 2
            np.bitwise_and(acc[:h], acc[n - h : n], out=acc[:h])
            n -= h
        return acc[0]

    def counts(self, queries: np.ndarray) -> np.ndarray:
        """Per-query counts of this block's points, ANDed one chunk of
        queries at a time and popcounted.

        A labelled block keeps the ANDed rows of several chunks, up to about
        _CHUNK_WORDS words and label slots, and counts them per label at once
        from prefix popcounts: the popcount of every whole word before a
        label boundary, from a running sum, plus that of the boundary word's
        bits below it."""
        step = self.step
        if self._bound_word is None:
            out = np.empty(len(queries), dtype=np.int64)
            for lo in range(0, len(queries), step):
                bits = self._anded(queries[lo : lo + step])
                out[lo : lo + step] = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
            return out
        words = self.table.shape[1]
        span = step * max(1, _CHUNK_WORDS // (words + len(self._bound_word)) // step)
        out = np.empty((len(queries), len(self._bound_word) - 1), dtype=np.int64)
        bits = np.empty((min(span, len(queries)), words), dtype=np.uint64)
        prefix = np.zeros((len(bits), words + 1), dtype=np.int32)
        for lo in range(0, len(queries), span):
            part = queries[lo : lo + span]
            b, pre = bits[: len(part)], prefix[: len(part)]
            for c in range(0, len(part), step):
                b[c : c + step] = self._anded(part[c : c + step])
            np.cumsum(np.bitwise_count(b), axis=1, out=pre[:, 1:])
            at = pre[:, self._bound_word]
            at += np.bitwise_count(b[:, self._bound_read] & self._bound_mask)
            out[lo : lo + span] = np.diff(at, axis=1)
        return out


def _bitset_step(dim: int, words: int) -> int:
    """Queries per bitset chunk: their row indices and gathered bitsets stay
    within _CHUNK_WORDS words."""
    return max(1, _CHUNK_WORDS // (3 * dim + (dim + 1) * words))


def _check_integer(a: np.ndarray, what: str) -> None:
    if a.size and a.dtype.kind not in "biu":
        raise ValueError(f"the bitset engine takes integer {what}, not {a.dtype}")


class DominanceIndex:
    """Immutable store of integer vectors answering dominance queries.

    engine "bitset" builds its bit-sliced tables here, in blocks of stored
    points; engine "naive" scans every stored point per query; engine
    "recursive" runs the offline divide-and-conquer over each query batch.
    Counts are exact for all three.  With `labels`, one nonnegative integer
    per stored point, `batch_count` returns a (queries x labels) matrix whose
    column l counts the dominated points labelled l, for l up to the largest
    label.  After construction the index is read-only, so any number of
    concurrent query workers is safe.
    """

    def __init__(
        self,
        pointset: PointSet,
        engine: str = "bitset",
        leaf_threshold: int = 32,
        shuffle_coords: bool = False,
        seed: int = 0,
        labels: np.ndarray | None = None,
    ):
        if engine not in ("bitset", "naive", "recursive"):
            raise ValueError(f"unknown engine {engine!r}")
        if leaf_threshold < 1:
            raise ValueError("leaf_threshold must be >= 1")
        self.n_labels = 0
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (len(pointset),):
                raise ValueError("labels length differs from point count")
            if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0):
                raise ValueError("labels must be nonnegative integers")
            labels = labels.astype(np.int64)
            self.n_labels = int(labels.max()) + 1 if labels.size else 0
        self._labels = labels
        self._pointset = pointset
        self.engine = engine
        self.leaf_threshold = leaf_threshold
        self.shuffle_coords = shuffle_coords
        self.seed = seed
        if shuffle_coords:
            rng = np.random.default_rng(seed)
            self._coord_order = rng.permutation(pointset.dim).astype(np.int64)
        else:
            self._coord_order = np.arange(pointset.dim, dtype=np.int64)
        self._blocks = []
        if engine == "bitset" and pointset.dim:
            pts = pointset.points
            _check_integer(pts, "points")
            self._blocks = [
                _BitsetBlock(
                    pts[lo : lo + _BLOCK_ROWS],
                    None if labels is None else labels[lo : lo + _BLOCK_ROWS],
                    self.n_labels,
                )
                for lo in range(0, len(pts), _BLOCK_ROWS)
            ]

    def __len__(self) -> int:
        return len(self._pointset)

    @property
    def dim(self) -> int:
        return self._pointset.dim

    @property
    def chunk_rows(self) -> int:
        """Queries the engine answers in one pass over its points; a caller
        that can stop early passes query batches of this size."""
        if self.engine == "bitset" and self._blocks:
            return self._blocks[0].step
        return _scan_step(len(self), self.dim)

    def _check_query(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q)
        if q.shape != (self.dim,):
            raise ValueError(f"query has shape {q.shape}, index dimension is {self.dim}")
        return q

    def count_dominated(self, q: np.ndarray) -> int:
        """Exact number of stored points dominated by q."""
        q = self._check_query(q)
        if len(self._pointset) == 0:
            return 0
        return int(np.all(self._pointset.points <= q[None, :], axis=1).sum())

    def find_dominated(self, q: np.ndarray) -> int | None:
        """The id of some stored point dominated by q, or None."""
        q = self._check_query(q)
        if len(self._pointset) == 0:
            return None
        hits = np.all(self._pointset.points <= q[None, :], axis=1)
        idx = int(np.argmax(hits))
        if not hits[idx]:
            return None
        return int(self._pointset.ids[idx])

    def batch_count(self, queries: np.ndarray, threads: int = 1) -> np.ndarray:
        """Per-query dominated-point counts; element-wise equal to count_dominated.
        A labelled index splits each query's count into one column per label."""
        counts, _ = self._batch(queries, threads=threads, with_stats=False)
        return counts

    def batch_count_with_stats(self, queries: np.ndarray) -> tuple[np.ndarray, dict]:
        """Single-threaded batch count plus traversal statistics."""
        return self._batch(queries, threads=1, with_stats=True)

    def _batch(
        self, queries: np.ndarray, threads: int, with_stats: bool
    ) -> tuple[np.ndarray, dict]:
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries have shape {queries.shape}, index dimension is {self.dim}"
            )
        if self.engine == "bitset":
            _check_integer(queries, "queries")
        stats = {"nodes": 0, "max_depth": 0, "leaves": 0} if with_stats else None

        labels = self._labels
        per_query = () if labels is None else (self.n_labels,)

        def run(chunk: np.ndarray) -> np.ndarray:
            if self.engine == "naive":
                return _block_counts(self._pointset.points, chunk, labels, self.n_labels)
            counts = np.zeros((len(chunk), *per_query), dtype=np.int64)
            if self.engine == "recursive":
                _offline_counts(
                    self._pointset.points,
                    chunk,
                    self._coord_order,
                    self.leaf_threshold,
                    counts,
                    stats,
                    labels,
                )
            elif self.dim == 0:
                # no coordinate left: every stored point is dominated
                if labels is None:
                    counts += len(self)
                else:
                    counts += np.bincount(labels, minlength=self.n_labels)
            for block in self._blocks:
                counts += block.counts(chunk)
            return counts

        if threads <= 1 or len(queries) < 2:
            return run(queries), stats or {}
        # imported here: the executor's modules cost about 0.7 MiB and are
        # needed only by multi-threaded joins
        from concurrent.futures import ThreadPoolExecutor

        bounds = np.linspace(0, len(queries), threads + 1, dtype=np.int64)
        chunks = [queries[bounds[i] : bounds[i + 1]] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, chunks))
        return np.concatenate(parts), stats or {}

    @staticmethod
    def workspace_bytes(
        engine: str,
        points: int,
        queries: int,
        dim: int,
        distinct: int,
        threads: int = 1,
        labels: int = 0,
    ) -> int:
        """Upper bound in bytes on what building an index of `points` stored
        vectors and counting `queries` queries with `threads` workers
        allocate next to the input matrices, from the block and chunk sizes
        the engines use; `distinct` bounds the number of values one stored
        coordinate takes, and `labels` the number of labels (0 when the
        points carry none)."""
        threads = max(1, threads)
        # the labelled count matrix and one copy of it, and the labels
        labelled = 16 * queries * labels + 8 * points if labels else 0
        # a naive scan chunk: the comparison tensor plus reductions at most
        # twice its size (one stored point set when that is larger)
        scan = 3 * max(_CHUNK_ELEMS, points * dim)
        if engine == "naive":
            return threads * scan + labelled
        if engine == "recursive":
            # pending index arrays along one recursion path (each step
            # retires a coordinate or halves the points) and the leaf
            # sub-matrices
            rows = points + queries
            path = dim + rows.bit_length()
            return threads * (scan + rows * (8 * path + 2 * dim)) + labelled
        block = max(1, min(points, _BLOCK_ROWS))
        blocks = -(-points // block)
        words = (block + 63) // 64
        table = 8 * dim * (min(block, distinct) + 1) * words
        # the key-to-row lookup table, or the distinct values and sorted keys
        # that replace it, and three arrays of label boundaries
        keys = max(4 * _LUT_ENTRIES, 16 * dim * (distinct + 1)) + 24 * (labels + 1)
        # building one block: value, key and row arrays, sort copies,
        # bincount indices and weights, float64 sums four times its table,
        # and the lookup table's temporaries
        build = 48 * block * dim + 5 * table + 3 * keys
        if labels:
            # the block's points reordered by label, and the order
            build += 8 * block * (dim + 2)
        chunk = 8 * max(_CHUNK_WORDS, 3 * dim + (dim + 1) * words)
        if labels:
            # a span of ANDed rows, their prefix popcounts and the values at
            # the label boundaries: under two words per word and label slot
            span = max(_bitset_step(dim, words), _CHUNK_WORDS // (words + labels + 1))
            chunk += 16 * span * (words + labels + 1)
        return blocks * (table + keys) + build + threads * chunk + labelled

    def describe(self) -> str:
        order = "shuffled" if self.shuffle_coords else "natural"
        return (
            f"DominanceIndex(engine={self.engine}, points={len(self)}, "
            f"dim={self.dim}, leaf_threshold={self.leaf_threshold}, "
            f"coords={order}, seed={self.seed})"
        )


def build_index(
    points: PointSet,
    engine: str = "bitset",
    leaf_threshold: int = 32,
    shuffle_coords: bool = False,
    seed: int = 0,
    labels: np.ndarray | None = None,
) -> DominanceIndex:
    """Build an immutable dominance index over the given points, optionally
    labelled (see `DominanceIndex`)."""
    return DominanceIndex(
        points,
        engine=engine,
        leaf_threshold=leaf_threshold,
        shuffle_coords=shuffle_coords,
        seed=seed,
        labels=labels,
    )
