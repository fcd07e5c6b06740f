"""The dominance range-search structure on its own.

Store N integer vectors as the rows of an (N x d) array; a query q counts
the stored vectors it dominates (y <= q on every coordinate, inclusive).
The default bit-sliced engine and the naive scan return identical counts;
only the work differs.
"""

import time

import numpy as np

from splitcut import build_index

rng = np.random.default_rng(42)
points = rng.integers(-20, 21, size=(2000, 16))
queries = rng.integers(-20, 21, size=(2000, 16))

# the bitset engine ANDs, per query, one "value <= q_j" bitset per
# coordinate and popcounts the result; the naive engine compares every pair
indexes = {engine: build_index(points, engine=engine) for engine in ("naive", "bitset")}
print(indexes["bitset"].describe())

counts_naive = indexes["naive"].batch_count(queries)
for name, index in indexes.items():
    t0 = time.perf_counter()
    counts = index.batch_count(queries)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(counts_naive, counts)
    print(f"{name:>9}: {len(queries)} queries in {elapsed * 1000:.1f} ms")
print("both engines agree")

bitset = indexes["bitset"]

# single-query operations on the query that dominates the most vectors
best = int(np.argmax(counts_naive))
q = queries[best]
print(f"\nquery {best} dominates", bitset.count_dominated(q), "stored vectors")

# labelled points: each query's count split by label, one column each
labels = rng.integers(0, 3, size=len(points))
by_label = build_index(points, labels=labels).batch_count(queries)
assert np.array_equal(by_label.sum(axis=1), counts_naive)
print("its counts per label:", by_label[best].tolist())

# the index only counts; a witness is a stored row found by scanning
hits = np.flatnonzero(np.all(points <= q, axis=1))
print("first dominated row:", int(hits[0]))

# dominance counts are monotone in the query
q2 = q + 5
print("after raising every coordinate by 5:", bitset.count_dominated(q2))
assert bitset.count_dominated(q2) >= bitset.count_dominated(q)

# saturation: the coordinatewise maximum dominates everything
top = points.max(axis=0)
print("count at the coordinatewise maximum:", bitset.count_dominated(top))
