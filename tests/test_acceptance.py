"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
comparison is exact (tolerance zero) except the wall-clock ratio of the
performance smoke test.
"""

import itertools
import random
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Graph,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    ProblemSpec,
    VertexConstraints,
    brute_force_count,
    naive_pair_join,
    random_graph,
    solve,
    validate_cut,
)
from splitcut.dominance import _block_counts, build_index
from splitcut.graph import Cut, VertexSet, split_halves
from splitcut.oracle import _feasible_chunks
from splitcut.solver import optimize_size

from conftest import complete_graph, cycle_graph, path_graph
from helpers import enumerate_half, half_matrix, random_interval, random_problem


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion} failed: {detail}"


@dataclass
class SweepRecord:
    n: int
    feasible: bool
    witness_ok: bool
    counts_agree: bool
    mirrored: bool


@pytest.fixture(scope="session")
def oracle_sweep():
    """Criterion 1 instance sweep, shared with the witness criterion."""
    rng = random.Random(20260808)
    kinds = ["dcut0", "dcut1", "dcut2", "internal", "abdom", "icc"]
    probabilities = [0.2, 0.5, 0.8]
    records = []
    for i in range(504):
        n = rng.randint(2, 14)
        p = probabilities[i % 3]
        g = random_graph(n, p, rng)
        kind = kinds[i % len(kinds)]
        if kind.startswith("dcut"):
            problem = DCut(min(int(kind[-1]), n))
        elif kind == "internal":
            problem = InternalPartition()
        elif kind == "abdom":
            problem = AlphaBetaDomination(random_interval(rng, n), random_interval(rng, n))
        else:
            problem = random_problem(rng, n, kind="icc")
        expected = brute_force_count(g, problem).count
        joined = naive_pair_join(g, problem)
        counted_result = solve(g, ProblemSpec(problem, mode="count"))
        counted = counted_result.count
        witnessed = solve(g, ProblemSpec(problem, mode="witness"))
        witness_ok = (witnessed.witness is not None) == (expected > 0)
        if witnessed.witness is not None:
            witness_ok &= validate_cut(g, problem, witnessed.witness)[0]
            witness_ok &= witnessed.witness.proper
        records.append(
            SweepRecord(
                n=n,
                feasible=expected > 0,
                witness_ok=witness_ok,
                counts_agree=expected == joined == counted,
                mirrored=counted_result.stats.mirrored,
            )
        )
    return records


def test_criterion_1_oracle_equivalence(oracle_sweep):
    # the pair join never mirrors, so on the symmetric instances it checks
    # the solver's reversed-pair rule by an independent route
    bad = sum(not r.counts_agree for r in oracle_sweep)
    mirrored = sum(r.mirrored for r in oracle_sweep)
    report(
        "C1",
        bad == 0 and mirrored > 0,
        f"solver = pair-join = brute force on {len(oracle_sweep)} random instances "
        f"({bad} mismatches, {mirrored} solved through the mirrored join)",
    )


def test_criterion_2_named_instances():
    k4 = complete_graph(4)
    c4 = cycle_graph(4)
    p4 = path_graph(4)
    k3 = complete_graph(3)
    abdom = ProblemSpec(AlphaBetaDomination(Interval(0, 0), Interval(0, 3)))
    checks = {
        "K4 1-cut infeasible": not solve(k4, ProblemSpec(DCut(1))).feasible,
        "C4 1-cut feasible": solve(c4, ProblemSpec(DCut(1))).feasible,
        "C4 1-cut count 4": solve(c4, ProblemSpec(DCut(1), mode="count")).count == 4,
        "P4 internal count 2": solve(p4, ProblemSpec(InternalPartition(), mode="count")).count
        == 2,
        "K3 domination count 3": solve(k3, replace(abdom, mode="count")).count == 3,
        "K3 domination max size 1": solve(k3, replace(abdom, mode="maximize_left")).optimal_size
        == 1,
    }
    checks["K3 domination max size 1 (optimize_size)"] = (
        optimize_size(k3, abdom, "maximize") == 1
    )
    failed = [name for name, ok in checks.items() if not ok]
    report("C2", not failed, f"named instances {sorted(checks)} (failed: {failed or 'none'})")


def test_criterion_3_encoding_iff_property():
    # Every subset of each half is encoded, the empty set and the whole half
    # included.  A proper cut must match exactly when the validator accepts
    # it; the two improper pairs (∅, ∅) and (V_A, V_B) must match exactly
    # when every per-vertex condition holds, which the brute-force oracle
    # evaluates without the properness filter.
    rng = random.Random(333)
    pairs = 0
    improper_pairs = 0
    exceptions = 0
    for i in range(100):
        n = rng.randint(4, 10)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        va, vb = split_halves(g)
        ka = len(va)
        qmasks = np.arange(1 << ka, dtype=np.uint64)
        dmasks = np.arange(1 << len(vb), dtype=np.uint64)
        qenum = enumerate_half(g, va, None)
        denum = enumerate_half(g, vb, None)
        assert np.array_equal(qenum.masks, qmasks) and np.array_equal(denum.masks, dmasks)
        full = (1 << n) - 1

        layouts = []
        for problem in (InternalPartition(), random_problem(rng, n, kind="icc")):
            # the binding columns of the join matrices
            Q = half_matrix(g, problem, qenum)[:, :-2]
            P = half_matrix(g, problem, denum)[:, :-2]
            layouts.append((problem, Q, P))
        for problem, Q, P in layouts:
            dominated = np.all(Q[:, None, :] >= P[None, :, :], axis=2)
            _, meets = next(_feasible_chunks(g, problem))
            for qi, s_mask in enumerate(qmasks.tolist()):
                for di, s2_mask in enumerate(dmasks.tolist()):
                    left = s_mask | (s2_mask << ka)
                    if left in (0, full):
                        ok = bool(meets[left])
                        improper_pairs += 1
                    else:
                        cut = Cut.from_left(VertexSet(left, n))
                        ok, _ = validate_cut(g, problem, cut)
                    pairs += 1
                    if ok != bool(dominated[qi, di]):
                        exceptions += 1
    report(
        "C3",
        exceptions == 0 and improper_pairs == 400,
        f"dominance matched the definitions on {pairs} half-subset pairs over "
        f"100 graphs, {improper_pairs} of them improper ({exceptions} exceptions)",
    )


def test_criterion_4_index_engine_equivalence():
    rng = np.random.default_rng(444)
    # labels come from their own stream, so the point sets stay as drawn
    label_rng = np.random.default_rng(4444)
    sets = 0
    bit_mismatches = 0
    label_mismatches = 0
    for trial in range(200):
        d = int(rng.choice([4, 8, 16, 64, 128]))
        if trial < 4:
            n_points = n_queries = 4096
        else:
            n_points = int(2 ** rng.uniform(2, 8.5))
            n_queries = int(2 ** rng.uniform(2, 8.5))
        span = int(rng.choice([2, 5, 40]))
        pts = rng.integers(-span, span + 1, size=(n_points, d))
        queries = rng.integers(-span, span + 1, size=(n_queries, d))
        scan = _block_counts(pts, queries, np.zeros(n_points, dtype=np.int64), 1)[:, 0]
        bits = build_index(pts).batch_count(queries)
        if not np.array_equal(scan, bits):
            bit_mismatches += 1
        labels = label_rng.integers(0, int(label_rng.integers(1, 20)), size=n_points)
        by_label = [
            _block_counts(pts, queries, labels, int(labels.max()) + 1),
            build_index(pts, labels=labels).batch_count(queries),
        ]
        if not (
            np.array_equal(by_label[0], by_label[1])
            and np.array_equal(by_label[0].sum(axis=1), scan)
        ):
            label_mismatches += 1
        sets += 1

    chains_ok = True
    for _ in range(20):
        d = int(rng.choice([4, 8, 16]))
        pts = rng.integers(-10, 11, size=(256, d))
        idx = build_index(pts)
        q = rng.integers(-10, 11, size=d)
        prev = idx.count_dominated(q)
        for _ in range(8):
            q = q + rng.integers(0, 4, size=d)
            cur = idx.count_dominated(q)
            chains_ok &= cur >= prev
            prev = cur
        chains_ok &= idx.count_dominated(pts.max(axis=0)) == len(pts)
        chains_ok &= idx.count_dominated(pts.min(axis=0) - 1) == 0
    report(
        "C4",
        bit_mismatches == 0 and label_mismatches == 0 and chains_ok,
        f"bitset index = pairwise scan on {sets} point sets "
        f"({bit_mismatches} mismatches), and with labels, summing to the "
        f"unlabelled counts ({label_mismatches} mismatches); monotone chains and saturation "
        f"{'held' if chains_ok else 'failed'}",
    )


def test_criterion_5_reduction_coherence():
    rng = random.Random(555)
    bad = 0
    for _ in range(50):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        spec = ProblemSpec(InternalPartition(), mode="count")
        direct = solve(g, spec).count
        # own count at least ceil(deg(v)/2) on either side, cross free
        free = Interval(0, n)
        as_icc = IntervalConstrainedCut(
            tuple(
                VertexConstraints(own, free, own, free)
                for own in (Interval((g.degree(v) + 1) // 2, n) for v in range(n))
            )
        )
        via_icc = solve(g, ProblemSpec(as_icc, mode="count")).count
        reference = brute_force_count(g, InternalPartition()).count
        if not (direct == via_icc == reference):
            bad += 1
    report(
        "C5",
        bad == 0,
        f"internal partition and its interval form agree on 50 graphs ({bad} mismatches); "
        "cross-degree and domination reductions covered by C1",
    )


def test_criterion_6_stratification():
    rng = random.Random(666)
    bad = 0
    for _ in range(50):
        n = rng.randint(2, 12)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        problem = random_problem(rng, n)
        spec = ProblemSpec(problem, mode="count")
        total = solve(g, spec).count
        stratified = sum(solve(g, replace(spec, size_target=t)).count for t in range(1, n))
        if stratified != total:
            bad += 1
    report("C6", bad == 0, f"sum over fixed sizes equals the total on 50 instances ({bad} mismatches)")


def test_criterion_7_performance_smoke():
    # solve (the join) at n=30 versus brute force measured at n=26 and
    # scaled by 2^4 (the polynomial factor is dropped, which only makes the
    # target harder to reach)
    g30 = random_graph(30, 0.5, random.Random(777))
    spec = ProblemSpec(DCut(1), mode="decide")

    t0 = time.perf_counter()
    result = solve(g30, spec)
    split_seconds = time.perf_counter() - t0

    g26 = random_graph(26, 0.5, random.Random(778))
    t0 = time.perf_counter()
    brute_force_count(g26, DCut(1))
    brute26_seconds = time.perf_counter() - t0
    extrapolated30 = brute26_seconds * 16

    ok = result.feasible in (True, False) and split_seconds * 10 <= extrapolated30
    report(
        "C7",
        ok,
        f"split-and-list n=30 decision in {split_seconds:.3f}s vs brute force "
        f"extrapolated {extrapolated30:.1f}s (measured {brute26_seconds:.1f}s at n=26); "
        f"ratio {extrapolated30 / max(split_seconds, 1e-9):.0f}x",
    )


def test_criterion_9_witness_soundness(oracle_sweep):
    bad = sum(not r.witness_ok for r in oracle_sweep)
    feasible = sum(r.feasible for r in oracle_sweep)
    report(
        "C9",
        bad == 0,
        f"witness present iff feasible and validator-approved on "
        f"{len(oracle_sweep)} instances, {feasible} feasible ({bad} violations)",
    )
