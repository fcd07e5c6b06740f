"""The dominance range-search structure on its own.

Store N integer vectors as the rows of an (N x d) array; a query q counts
the stored vectors it dominates (y <= q on every coordinate, inclusive).
The bit-sliced index and a direct scan of every stored vector return
identical counts; only the work differs.
"""

import time

import numpy as np

from splitcut import build_index

rng = np.random.default_rng(42)
points = rng.integers(-20, 21, size=(2000, 16))
queries = rng.integers(-20, 21, size=(2000, 16))

# the index ANDs, per query, one "value <= q_j" bitset per coordinate and
# popcounts the result; `count_dominated` compares q with every stored row
bitset = build_index(points)
print(bitset.describe())

t0 = time.perf_counter()
counts_scan = np.array([bitset.count_dominated(q) for q in queries])
scan_ms = (time.perf_counter() - t0) * 1000
t0 = time.perf_counter()
counts = bitset.batch_count(queries)
bitset_ms = (time.perf_counter() - t0) * 1000
assert np.array_equal(counts_scan, counts)
print(f"     scan: {len(queries)} queries in {scan_ms:.1f} ms")
print(f"   bitset: {len(queries)} queries in {bitset_ms:.1f} ms")
print("the index and the scan agree")

# single-query operations on the query that dominates the most vectors
best = int(np.argmax(counts_scan))
q = queries[best]
print(f"\nquery {best} dominates", bitset.count_dominated(q), "stored vectors")

# labelled points: each query's count split by label, one column each
labels = rng.integers(0, 3, size=len(points))
by_label = build_index(points, labels=labels).batch_count(queries)
assert np.array_equal(by_label.sum(axis=1), counts_scan)
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
