"""Simple undirected graphs over bitmask vertex sets.

Vertices are 0-based everywhere inside the library.  The edge-list text
format, constraint files, and all CLI output use 1-based labels; the
translation happens only at those boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ResourceLimitError

__all__ = [
    "Cut",
    "Graph",
    "GraphParseError",
    "VertexSet",
    "neighbor_count",
    "parse_graph",
    "random_graph",
    "split_halves",
]


class GraphParseError(ValueError):
    """Malformed edge-list input.  `reason` names the specific violation."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Subset of vertices {0, ..., n-1} stored as an integer bitmask.

    Immutable; membership is O(1), cardinality is a popcount.
    """

    mask: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("universe size must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask outside universe")

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside universe [0, {n})")
            mask |= 1 << v
        return cls(mask, n)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls((1 << n) - 1, n)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet(self.mask | other.mask, self.n)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet(self.mask & other.mask, self.n)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet(self.mask & ~other.mask, self.n)

    def complement(self) -> "VertexSet":
        return VertexSet(self.mask ^ ((1 << self.n) - 1), self.n)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_universe(other)
        return self.mask & ~other.mask == 0

    def _check_universe(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets over different universes")

    def __repr__(self) -> str:
        return f"VertexSet({sorted(self)}, n={self.n})"


@dataclass(frozen=True, slots=True)
class Cut:
    """Ordered bipartition (left, right) of the full vertex set."""

    left: VertexSet
    right: VertexSet

    def __post_init__(self):
        if self.left.n != self.right.n:
            raise ValueError("cut sides over different universes")
        if self.left.mask & self.right.mask:
            raise ValueError("cut sides overlap")
        if self.left.mask | self.right.mask != (1 << self.left.n) - 1:
            raise ValueError("cut sides do not cover the vertex set")

    @classmethod
    def from_left(cls, left: VertexSet) -> "Cut":
        return cls(left, left.complement())

    @property
    def proper(self) -> bool:
        return self.left.mask != 0 and self.right.mask != 0

    def __repr__(self) -> str:
        return f"Cut(left={sorted(self.left)}, right={sorted(self.right)})"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus one neighbor bitmask per vertex."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length differs from vertex count")
        for v, mask in enumerate(self.adj):
            if mask < 0 or mask >> self.n:
                raise ValueError(f"neighbor mask of {v} outside universe")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            rest = mask
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                rest ^= low

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-based edge pairs, rejecting self-loops and duplicates."""
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside universe [0, {n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (adj[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from masks known to be valid, such as a relabelling of a
        checked graph, built without the O(m) check of `__post_init__`."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet(self.adj[v], self.n)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            rest = self.adj[v] >> (v + 1)
            base = v + 1
            while rest:
                low = rest & -rest
                out.append((v, base + low.bit_length() - 1))
                rest ^= low
        return out

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str, max_n: int | None = None) -> Graph:
    """Parse "n m" header plus m 1-based "u v" edge lines; '#' starts a comment.

    Blank lines are skipped and Windows line endings are accepted.  Rejects
    self-loops, duplicate edges, out-of-range indices, and header/edge-count
    mismatches, each with a distinct `GraphParseError.reason`.  More than
    `max_n` vertices raises `ResourceLimitError` before any is stored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise GraphParseError("bad_header", "missing header line")

    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError("bad_header", f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError("bad_header", f"non-integer header {lines[0]!r}") from None
    if n < 1:
        raise GraphParseError("bad_vertex_count", f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise GraphParseError("bad_header", f"edge count must be >= 0, got {m}")
    if len(lines) - 1 != m:
        raise GraphParseError(
            "edge_count",
            f"header declares {m} edges but {len(lines) - 1} edge lines found",
        )
    if max_n is not None and n > max_n:
        raise ResourceLimitError(f"n={n} exceeds the vertex cap {max_n}")

    adj = [0] * n
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("bad_edge", f"expected 'u v' edge line, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("bad_edge", f"non-integer edge line {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError("bad_index", f"edge ({u}, {v}) outside [1, {n}]")
        if u == v:
            raise GraphParseError("self_loop", f"self-loop at vertex {u}")
        u -= 1
        v -= 1
        if (adj[u] >> v) & 1:
            raise GraphParseError("duplicate_edge", f"duplicate edge ({u + 1}, {v + 1})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def neighbor_count(g: Graph, v: int, a: VertexSet) -> int:
    """Number of neighbors of v inside the set a, i.e. |N(v) ∩ a|."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside universe [0, {g.n})")
    return (g.adj[v] & a.mask).bit_count()


def split_halves(g: Graph) -> tuple[VertexSet, VertexSet]:
    """Deterministic half split: first ⌊n/2⌋ vertices by index, then the rest.

    The solver relabels the graph before it splits, so that these two runs
    of indices are a bisection with few cut edges (`solver._low_cut_split`);
    the encoder needs each half to be a run of consecutive vertices."""
    k = g.n // 2
    first = VertexSet((1 << k) - 1, g.n)
    return first, first.complement()


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdős–Rényi G(n, p) with edges drawn in a fixed vertex-pair order."""
    if not 0.0 <= p <= 1.0:  # NaN included
        raise ValueError(f"edge probability {p} outside [0, 1]")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)
