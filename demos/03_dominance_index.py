"""The dominance range-search structure on its own.

Store N integer vectors; a query q counts the stored vectors it dominates
(y <= q on every coordinate, inclusive).  The default bit-sliced engine,
the offline divide-and-conquer engine and the naive scan return identical
counts; only the work differs.
"""

import time

import numpy as np

from splitcut import PointSet, build_index

rng = np.random.default_rng(42)
points = rng.integers(-20, 21, size=(2000, 16))
queries = rng.integers(-20, 21, size=(2000, 16))

# the bitset engine ANDs, per query, one "value <= q_j" bitset per
# coordinate and popcounts the result; the recursive engine splits points
# at pivot values; the naive engine compares every pair
indexes = {
    engine: build_index(PointSet.of(points), engine=engine)
    for engine in ("naive", "recursive", "bitset")
}
print(indexes["bitset"].describe())

counts_naive = indexes["naive"].batch_count(queries)
for name, index in indexes.items():
    t0 = time.perf_counter()
    counts = index.batch_count(queries)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(counts_naive, counts)
    print(f"{name:>9}: {len(queries)} queries in {elapsed * 1000:.1f} ms")
print("all three engines agree")

bitset = indexes["bitset"]

# single-query operations
q = queries[0]
print("\nfirst query dominates", bitset.count_dominated(q), "stored vectors")
print("one witness id:", bitset.find_dominated(q))

# dominance counts are monotone in the query
q2 = q + 5
print("after raising every coordinate by 5:", bitset.count_dominated(q2))
assert bitset.count_dominated(q2) >= bitset.count_dominated(q)

# saturation: the coordinatewise maximum dominates everything
top = points.max(axis=0)
print("count at the coordinatewise maximum:", bitset.count_dominated(top))
