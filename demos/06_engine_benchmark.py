"""Scaling shape: `solve`, which joins the two halves' lists at these
sizes, versus `brute_force_count`, the full 2^n enumeration.

Counts must agree wherever both run; past n=22 only `solve` continues.
Times are wall-clock on whatever machine runs this, so only the growth
shape is meaningful.
"""

import random
import time

from splitcut import DCut, ProblemSpec, brute_force_count, random_graph, solve

print(f"{'n':>4} {'split count':>12} {'split ms':>10} {'brute count':>12} {'brute ms':>10}")
for n in (14, 18, 22, 26, 30):
    g = random_graph(n, 0.5, random.Random(1000 + n))
    spec = ProblemSpec(DCut(1), mode="count")

    t0 = time.perf_counter()
    split_count = solve(g, spec).count
    split_ms = (time.perf_counter() - t0) * 1000

    if n <= 22:
        t0 = time.perf_counter()
        brute_count = brute_force_count(g, spec).count
        brute_ms = (time.perf_counter() - t0) * 1000
        assert brute_count == split_count
        print(f"{n:>4} {split_count:>12} {split_ms:>10.1f} {brute_count:>12} {brute_ms:>10.1f}")
    else:
        print(f"{n:>4} {split_count:>12} {split_ms:>10.1f} {'(skipped)':>12} {'-':>10}")
