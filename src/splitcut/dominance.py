"""Dominance range counting over integer point sets.

A stored point y is dominated by a query q when y_i <= q_i on every
coordinate (inclusive).  Points and queries are 2-d integer arrays, one
vector a row.  The index is bit-sliced (Matoušek, "Computing dominances in
E^n", IPL 1991): per coordinate and value v, it keeps the bitset of points
whose coordinate is at most v, in a table indexed by value over narrow
ranges and by the rank of v among the stored values otherwise, and a query
ANDs one such bitset per coordinate and popcounts the result.  It takes no
tuning arguments: block and chunk sizes are module constants.  It counts
per label: stored points may carry integer labels, and each query's
dominated points are counted per label.  An unlabelled index labels every
point 0 and reports that one column.  `_block_counts`, a chunked pairwise
scan, is the exact reference it is tested against, and the pair-join
oracle's join.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DominanceIndex", "build_index"]

_CHUNK_ELEMS = 1 << 24

# Index sizes.  Each block of _BLOCK_ROWS stored points gets its own
# tables; a query chunk's row indices and gathered bitsets stay within
# _CHUNK_WORDS 8-byte words; a block whose column spans (see `_BitsetBlock`)
# sum to at most _VALUE_ROWS indexes its table rows by value instead of by
# binary search.  Every solver block stays under it: at most 2n + 2 columns
# of spans at most 2n + 2, n <= 64.
_BLOCK_ROWS = 1 << 12
_CHUNK_WORDS = 1 << 17
_VALUE_ROWS = 1 << 15


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a`, ascending.  Unlike `np.unique`, this does
    not import `numpy.ma`, which keeps about 1 MiB of memory for good."""
    s = np.sort(a, axis=None)
    first = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def _scan_step(points: int, dim: int) -> int:
    """Queries one chunk of a direct scan compares against every point."""
    return max(1, _CHUNK_ELEMS // max(1, points * dim))


def _block_counts(
    points: np.ndarray, queries: np.ndarray, labels: np.ndarray, n_labels: int
) -> np.ndarray:
    """Per-query dominated-point counts by direct comparison, chunked to
    keep the broadcast workspace bounded: column l of the (queries x
    n_labels) result counts the points labelled l."""
    nq = len(queries)
    counts = np.zeros((nq, n_labels), dtype=np.int64)
    if len(points) == 0 or nq == 0:
        return counts
    step = _scan_step(*points.shape)
    for lo in range(0, nq, step):
        qc = queries[lo : lo + step]
        hits = np.all(points[None, :, :] <= qc[:, None, :], axis=2)
        for label in range(n_labels):
            counts[lo : lo + step, label] = hits[:, labels == label].sum(axis=1)
    return counts


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

    Each coordinate j owns a run of table rows: its first row is empty, and
    each later one holds the bitset of points whose coordinate j is at most
    the value that row stands for.  With lo_j and hi_j the smallest and
    largest value of coordinate j, its span is hi_j - lo_j + 2.  When the
    spans sum to at most _VALUE_ROWS, the rows are indexed by value:
    coordinate j's rows stand for lo_j - 1 to hi_j, from base_j, the sum of
    the earlier spans, and a value x finds row base_j + clip(x, lo_j - 1,
    hi_j) - (lo_j - 1).  Otherwise the values are rank-compressed: x maps to
    a key `j * stride + position(x)`, where a stored value v is at most x
    exactly when position(v) <= position(x), and keys map to rows, both by
    binary search over the block's sorted distinct values and keys.
    """

    def __init__(self, points: np.ndarray, labels: np.ndarray, n_labels: int):
        b, d = points.shape
        # rows sorted by label, in their given order within a label, so each
        # label owns one run of bits [bounds[l], bounds[l + 1])
        order = np.argsort(labels, kind="stable")
        points = points[order]
        bounds = np.searchsorted(labels[order], np.arange(n_labels + 1))
        self._bound_word = bounds >> 6
        self._bound_read = np.minimum(self._bound_word, (b - 1) >> 6)
        low_bits = (bounds & 63).astype(np.uint64)
        self._bound_mask = (np.uint64(1) << low_bits) - np.uint64(1)
        lo = points.min(axis=0).astype(np.int64)
        hi = points.max(axis=0).astype(np.int64)
        self._cols = np.arange(d, dtype=np.int64)
        self._values = None
        # hi - lo is read in uint64, where it cannot wrap, and capped before
        # the + 2; a row for lo - 1 needs lo above the int64 minimum
        spans = np.minimum((hi - lo).view(np.uint64), _VALUE_ROWS).astype(np.int64) + 2
        if lo.min() > np.iinfo(np.int64).min and spans.sum() <= _VALUE_ROWS:
            self._lo, self._hi = lo - 1, hi
            self._base = np.cumsum(spans) - spans
        else:
            self._values = _distinct(points)
            self._base = self._cols * (len(self._values) + 1)
            self._sorted_keys = _distinct(self._keys(points))
        # one past each coordinate's last row, that of its largest value
        ends = self.rows(hi) + 1
        table = _exact_rows(self.rows(points), int(ends[-1]))
        # Each point sits in exactly one row per coordinate, so a running XOR
        # down the rows turns "value = v" into "value <= v"; seeding every
        # later coordinate's empty row with all points restarts it at zero.
        full = np.full(table.shape[1], ~np.uint64(0), dtype=np.uint64)
        if b % 64:
            full[-1] = (np.uint64(1) << np.uint64(b % 64)) - np.uint64(1)
        table[ends[:-1]] = full
        self.table = np.bitwise_xor.accumulate(table, axis=0, out=table)

    def _keys(self, x: np.ndarray) -> np.ndarray:
        """The rank-compressed key of each coordinate of each vector in x."""
        keys = np.searchsorted(self._values, x, side="right")
        keys += self._base
        return keys

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The table row of each coordinate of each vector in x."""
        if self._values is None:
            rows = np.maximum(x, self._lo, dtype=np.int64)
            np.minimum(rows, self._hi, out=rows)
            # base - lo may wrap in int64, but the sum it is added into fits
            rows += self._base - self._lo
            return rows
        return np.searchsorted(self._sorted_keys, self._keys(x), side="right") + self._cols

    @property
    def step(self) -> int:
        """Queries per chunk of `counts`."""
        return _bitset_step(len(self._cols), self.table.shape[1])

    def _anded(self, queries: np.ndarray) -> np.ndarray:
        """Each query's AND of its coordinates' table rows.  With the
        coordinate axis first, the reduction ANDs whole contiguous layers."""
        gathered = np.take(self.table, self.rows(queries).T, axis=0)
        return np.bitwise_and.reduce(gathered, axis=0)

    def counts(self, queries: np.ndarray) -> np.ndarray:
        """Per-query, per-label counts of this block's points.

        Queries are ANDed one chunk at a time.  With one label, a query's
        count is the popcount of its ANDed row.  Otherwise the ANDed rows of
        several chunks, up to about _CHUNK_WORDS words and label slots, are
        counted per label at once from prefix popcounts: the popcount of
        every whole word before a label boundary, from a running sum, plus
        that of the boundary word's bits below it."""
        step = self.step
        if len(self._bound_word) == 2:
            out = np.empty((len(queries), 1), dtype=np.int64)
            for c in range(0, len(queries), step):
                anded = self._anded(queries[c : c + step])
                out[c : c + step, 0] = np.bitwise_count(anded).sum(axis=1)
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
    """Refuse what int64 arithmetic cannot hold: an array not of integers,
    or of uint64 with an entry above the int64 maximum (no other is read)."""
    if a.size and a.dtype.kind not in "biu":
        raise ValueError(f"{what} must be integers, not {a.dtype}")
    if a.size and a.dtype == np.uint64 and a.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{what} must fit int64, {a.max()} does not")


class DominanceIndex:
    """Immutable store of integer vectors answering dominance queries.

    `points` is a (points x dim) integer array; the bit-sliced tables are
    built here, in blocks of stored points.  Counts are exact.  With
    `labels`, one nonnegative integer per stored point, `batch_count`
    returns a (queries x labels) matrix whose column l counts
    the dominated points labelled l, for l up to the largest label.  Without
    them, every point is labelled 0 and `batch_count` returns that column,
    one count per query.  The index is read-only after construction.
    """

    def __init__(self, points: np.ndarray, labels: np.ndarray | None = None):
        points = np.asarray(points)
        if points.ndim != 2:
            raise ValueError(f"points have shape {points.shape}, not (points, dim)")
        self._labelled = labels is not None
        if labels is None:
            labels = np.zeros(len(points), dtype=np.int64)
            self.n_labels = 1
        else:
            labels = np.asarray(labels)
            if labels.shape != (len(points),):
                raise ValueError("labels length differs from point count")
            if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0):
                raise ValueError("labels must be nonnegative integers")
            labels = labels.astype(np.int64)
            self.n_labels = int(labels.max()) + 1 if labels.size else 0
        self._labels = labels
        self._points = points
        self._blocks = []
        if self.dim:
            _check_integer(points, "points")
            self._blocks = [
                _BitsetBlock(
                    points[lo : lo + _BLOCK_ROWS], labels[lo : lo + _BLOCK_ROWS], self.n_labels
                )
                for lo in range(0, len(points), _BLOCK_ROWS)
            ]

    def __len__(self) -> int:
        return int(self._points.shape[0])

    @property
    def dim(self) -> int:
        return int(self._points.shape[1])

    @property
    def chunk_rows(self) -> int:
        """Queries the index answers in one pass over its points; a caller
        that can stop early passes query batches of this size."""
        if self._blocks:
            return self._blocks[0].step
        return _scan_step(len(self), self.dim)

    def count_dominated(self, q: np.ndarray) -> int:
        """Exact number of stored points dominated by q, by a direct scan:
        the per-query reference for `batch_count`."""
        q = np.asarray(q)
        if q.shape != (self.dim,):
            raise ValueError(f"query has shape {q.shape}, index dimension is {self.dim}")
        return int(np.all(self._points <= q[None, :], axis=1).sum())

    def batch_count(self, queries: np.ndarray) -> np.ndarray:
        """Per-query dominated-point counts; element-wise equal to count_dominated.
        A labelled index splits each query's count into one column per label."""
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries have shape {queries.shape}, index dimension is {self.dim}"
            )
        _check_integer(queries, "queries")
        counts = np.zeros((len(queries), self.n_labels), dtype=np.int64)
        if self.dim == 0:
            # no coordinate left: every stored point is dominated
            counts += np.bincount(self._labels, minlength=self.n_labels)
        for block in self._blocks:
            counts += block.counts(queries)
        return counts if self._labelled else counts[:, 0]

    @staticmethod
    def workspace_bytes(
        points: int, queries: int, dim: int, values: int, labels: int = 1
    ) -> int:
        """Upper bound in bytes on what building an index of `points` stored
        vectors and counting `queries` queries allocate next to the input
        matrices, from the block and chunk sizes the index uses; `values`
        bounds the span of one stored coordinate, the number of integers
        from its smallest value to its largest, and `labels` the number of
        labels (1 when the points carry none)."""
        # the count matrix and one copy of it, and the labels
        counted = 16 * queries * labels + 8 * points
        block = max(1, min(points, _BLOCK_ROWS))
        blocks = -(-points // block)
        words = (block + 63) // 64
        # a block indexed by value has at most _VALUE_ROWS rows, one per
        # value and column plus one empty row per column; a rank-compressed
        # one has one per distinct value and column plus the empty rows
        ranked = dim * (min(block, values) + 1)
        rows = min(dim * (values + 1), max(_VALUE_ROWS, ranked))
        table = 8 * rows * words
        # the column ranges, or the distinct values and sorted keys, and
        # three arrays of label boundaries
        keys = 16 * ranked + 24 * (labels + 1)
        # building one block: its points reordered by label and the order,
        # value, key and row arrays, sort copies, bincount indices and
        # weights, float64 sums four times its table, and the label sort
        build = 8 * block * (dim + 2) + 48 * block * dim + 5 * table + keys
        # a query chunk's row indices and gathered bitsets, then a span of
        # ANDed rows, their prefix popcounts and the values at the label
        # boundaries: under two words per word and label slot
        chunk = 8 * max(_CHUNK_WORDS, 3 * dim + (dim + 1) * words)
        span = max(_bitset_step(dim, words), _CHUNK_WORDS // (words + labels + 1))
        chunk += 16 * span * (words + labels + 1)
        return blocks * (table + keys) + build + chunk + counted

    def describe(self) -> str:
        return f"DominanceIndex(points={len(self)}, dim={self.dim})"


def build_index(points: np.ndarray, labels: np.ndarray | None = None) -> DominanceIndex:
    """Build an immutable dominance index over a (points x dim) integer
    array, optionally labelled (see `DominanceIndex`)."""
    return DominanceIndex(points, labels=labels)
