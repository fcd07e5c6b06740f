"""Seeded request pools for the splitcut benchmark.

A workload is a fixed table of slots (problem family, vertex count, number
of graphs) and answer modes.  The seed only draws the random graphs, so
every seed runs the same mix of problem shapes.  Slot sizes put the median
and tail requests inside one slot's cost range, or where slot costs
overlap, rather than on a jump between two slots; that keeps them steady
from seed to seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from splitcut import (
    AlphaBetaDomination,
    DCut,
    Graph,
    InternalPartition,
    Interval,
    ProblemSpec,
    random_graph,
)

# family name -> (problem, edge probability)
FAMILIES = {
    "dcut2": (DCut(2), 0.1),
    "internal": (InternalPartition(), 0.3),
    "dcut1-mid": (DCut(1), 0.25),
    "dcut1-dense": (DCut(1), 0.5),
    "abdom": (AlphaBetaDomination(Interval(0, 0), Interval(0, 4)), 0.3),
}

COUNT = ("count",)
MIXED = ("decide", "witness", "count@half", "minimize_left", "maximize_left")


@dataclass(frozen=True)
class Workload:
    why: str
    slots: tuple[tuple[str, int, int], ...]  # (family, n, graphs), cheapest first
    modes: tuple[str, ...]


# Why each workload exists is part of the benchmark's contract; the same
# sentences are recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-sparse": Workload(
        why="pruning leaves almost no rows, so the degenerate sweep dominates; "
        "control where dominance-index changes should not show",
        slots=(("dcut1-dense", 27, 12), ("dcut1-mid", 27, 12), ("abdom", 27, 18)),
        modes=COUNT,
    ),
    "mixed-modes": Workload(
        why="decide, witness, fixed-size count and min/max size on the join families; "
        "the dominance join is the largest layer, and the optimize loop and early exit act here",
        slots=(("internal", 18, 4), ("dcut2", 18, 4), ("internal", 20, 20), ("dcut2", 20, 4)),
        modes=MIXED,
    ),
}

# For the benchmark's own tests: the same slots with two graphs each and
# n <= 12, still above the size where the solver switches to brute force.
TINY_SIZES = (10, 11, 12)


@dataclass(frozen=True)
class Request:
    """One solve call: a graph, a spec, and where they came from."""

    id: int
    graph_id: int
    family: str
    n: int
    mode: str
    size_target: int | None
    graph: Graph
    spec: ProblemSpec

    @property
    def label(self) -> str:
        size = "" if self.size_target is None else f"@{self.size_target}"
        return f"{self.family}/n{self.n}/{self.mode}{size}"


def graph_digest(g: Graph) -> str:
    text = f"{g.n}:" + ",".join(f"{u}-{v}" for u, v in g.edges())
    return hashlib.sha1(text.encode()).hexdigest()


def pool_digest(requests: list[Request]) -> str:
    """Short digest of a request pool: its labels and graphs, in order."""
    text = "|".join(f"{r.label}:{graph_digest(r.graph)}" for r in requests)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _spec(family: str, n: int, mode: str) -> tuple[ProblemSpec, int | None]:
    problem, _ = FAMILIES[family]
    if mode == "count@half":
        return ProblemSpec(problem, size_target=n // 2, mode="count"), n // 2
    return ProblemSpec(problem, mode=mode), None


def build_requests(name: str, seed: int, tiny: bool = False) -> list[Request]:
    """The workload's request pool for one seed, in the order it is run.

    Request 0 comes from the first (cheapest) slot, so a warm-up solve on it
    is cheap; the rest are shuffled by the seed so no slot runs in a block.
    """
    wl = WORKLOADS[name]
    slots = wl.slots
    if tiny:
        slots = [(f, TINY_SIZES[i % len(TINY_SIZES)], 2) for i, (f, _, _) in enumerate(slots)]
    graphs = []
    for family, n, count in slots:
        for rep in range(count):
            rng = random.Random(f"{name}/{seed}/{family}/{n}/{rep}")
            graphs.append((family, n, random_graph(n, FAMILIES[family][1], rng)))
    order = list(range(1, len(graphs) * len(wl.modes)))
    random.Random(f"{name}/{seed}/order").shuffle(order)
    out = []
    for rid, flat in enumerate([0] + order):
        gid, mi = divmod(flat, len(wl.modes))
        family, n, g = graphs[gid]
        spec, size = _spec(family, n, wl.modes[mi])
        out.append(Request(rid, gid, family, n, wl.modes[mi], size, g, spec))
    return out
