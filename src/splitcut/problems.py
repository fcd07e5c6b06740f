"""Problem specifications, the definition-direct cut validator, and the
reductions of every concrete problem to per-vertex interval-constrained form.

The validator works straight off the problem definitions and never touches
vector encodings; every other component is ultimately checked against it.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Union

from .graph import Cut, Graph, neighbor_count

__all__ = [
    "AlphaBetaDomination",
    "ConstraintParseError",
    "DCut",
    "Interval",
    "IntervalConstrainedCut",
    "InternalPartition",
    "Mode",
    "Problem",
    "ProblemSpec",
    "VertexConstraints",
    "Violation",
    "abdom_to_icc",
    "dcut_to_icc",
    "internal_to_icc",
    "interval_constraints",
    "parse_constraints",
    "validate_cut",
    "validate_spec",
]

Mode = Literal["decide", "count", "witness", "minimize_left", "maximize_left"]

MODES = ("decide", "count", "witness", "minimize_left", "maximize_left")


class ConstraintParseError(ValueError):
    """Malformed per-vertex constraint file.  `reason` names the violation."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Interval:
    """Inclusive integer interval [lo, hi], its ends stored as int.  Ends that
    are not integers (0.5, say) and empty intervals raise ValueError."""

    lo: int
    hi: int

    def __post_init__(self):
        for end in ("lo", "hi"):
            value = getattr(self, end)
            try:
                object.__setattr__(self, end, operator.index(value))
            except TypeError:
                raise ValueError(f"interval end {value!r} is not an integer") from None
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.hi < 0:
            raise ValueError(f"interval [{self.lo}, {self.hi}] entirely below 0")

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def clamp(self, n: int) -> "Interval":
        """Clip into [0, n], warning when anything was actually cut off.

        Neighbor counts always lie in [0, n-1], so clipping never changes
        which counts satisfy the interval; it only normalizes bounds written
        with "unbounded" intent (e.g. hi = 10**9).
        """
        lo = min(max(self.lo, 0), n)
        hi = min(self.hi, n)
        if (lo, hi) != (self.lo, self.hi):
            warnings.warn(
                f"interval [{self.lo}, {self.hi}] clamped to [{lo}, {hi}] for n={n}",
                stacklevel=2,
            )
            return Interval(lo, hi)
        return self


@dataclass(frozen=True)
class VertexConstraints:
    """Per-vertex interval bounds on neighbor counts, one quadruple per vertex.

    left_own:    |N(v) ∩ V_L| for v in V_L
    left_cross:  |N(v) ∩ V_R| for v in V_L
    right_own:   |N(v) ∩ V_R| for v in V_R
    right_cross: |N(v) ∩ V_L| for v in V_R
    """

    left_own: Interval
    left_cross: Interval
    right_own: Interval
    right_cross: Interval

    def clamp(self, n: int) -> "VertexConstraints":
        return VertexConstraints(
            self.left_own.clamp(n),
            self.left_cross.clamp(n),
            self.right_own.clamp(n),
            self.right_cross.clamp(n),
        )


@dataclass(frozen=True)
class DCut:
    """Every vertex has at most d neighbors on the opposite side."""

    d: int


@dataclass(frozen=True)
class InternalPartition:
    """Every vertex has at least as many neighbors on its own side as across."""


@dataclass(frozen=True)
class AlphaBetaDomination:
    """Left vertices have |N(v) ∩ V_L| in alpha; right vertices in beta."""

    alpha: Interval
    beta: Interval


@dataclass(frozen=True)
class IntervalConstrainedCut:
    """Fully vertex-specific interval constraints."""

    per_vertex: tuple[VertexConstraints, ...]


Problem = Union[DCut, InternalPartition, AlphaBetaDomination, IntervalConstrainedCut]


@dataclass(frozen=True)
class ProblemSpec:
    """A problem instance parameterization plus the requested answer mode."""

    problem: Problem
    size_target: int | None = None
    mode: Mode = "decide"


@dataclass(frozen=True)
class Violation:
    """First violated constraint found by the validator."""

    vertex: int | None
    constraint: str


def validate_spec(g: Graph, spec: ProblemSpec) -> None:
    """Raise ValueError when spec parameters are out of range for g."""
    n = g.n
    problem = spec.problem
    if isinstance(problem, DCut):
        if not 0 <= problem.d <= n:
            raise ValueError(f"d={problem.d} outside [0, {n}]")
    elif isinstance(problem, IntervalConstrainedCut):
        if len(problem.per_vertex) != n:
            raise ValueError(
                f"expected {n} vertex constraints, got {len(problem.per_vertex)}"
            )
    elif not isinstance(problem, (InternalPartition, AlphaBetaDomination)):
        raise ValueError(f"unknown problem type {type(problem).__name__}")
    if spec.size_target is not None and not 1 <= spec.size_target <= n - 1:
        raise ValueError(f"size target {spec.size_target} outside [1, {n - 1}]")
    if spec.mode not in MODES:
        raise ValueError(f"unknown mode {spec.mode!r}")


# ---------------------------------------------------------------------------
# Reductions to interval-constrained form
# ---------------------------------------------------------------------------


def dcut_to_icc(g: Graph, d: int) -> tuple[VertexConstraints, ...]:
    """Own-side counts are unconstrained; cross counts capped at d on both sides."""
    n = g.n
    if not 0 <= d <= n:
        raise ValueError(f"d={d} outside [0, {n}]")
    free = Interval(0, n)
    cap = Interval(0, d)
    one = VertexConstraints(free, cap, free, cap)
    return (one,) * n


def abdom_to_icc(
    g: Graph, alpha: Interval, beta: Interval
) -> tuple[VertexConstraints, ...]:
    """Left in-part count must be in alpha; right vertices see V_L through beta."""
    n = g.n
    free = Interval(0, n)
    one = VertexConstraints(alpha.clamp(n), free, free, beta.clamp(n))
    return (one,) * n


def internal_to_icc(g: Graph) -> tuple[VertexConstraints, ...]:
    """Own-side count at least ⌈deg(v)/2⌉ on either side; cross unconstrained.

    |N_own(v)| >= |N_cross(v)| with the two adding to deg(v) is the same as
    |N_own(v)| >= ⌈deg(v)/2⌉.
    """
    return tuple(_own_side_majority(a.bit_count(), g.n) for a in g.adj)


@lru_cache(maxsize=None)
def _own_side_majority(degree: int, n: int) -> VertexConstraints:
    """The interval form of one vertex's condition; vertices of one degree
    share it, and every solve of internal partition builds it."""
    free = Interval(0, n)
    own = Interval((degree + 1) // 2, n)
    return VertexConstraints(own, free, own, free)


def interval_constraints(g: Graph, problem: Problem) -> tuple[VertexConstraints, ...]:
    """Per-vertex interval form of any problem, with bounds clamped into [0, n]."""
    if isinstance(problem, DCut):
        return dcut_to_icc(g, problem.d)
    if isinstance(problem, AlphaBetaDomination):
        return abdom_to_icc(g, problem.alpha, problem.beta)
    if isinstance(problem, InternalPartition):
        return internal_to_icc(g)
    if isinstance(problem, IntervalConstrainedCut):
        if len(problem.per_vertex) != g.n:
            raise ValueError(
                f"expected {g.n} vertex constraints, got {len(problem.per_vertex)}"
            )
        return tuple(c.clamp(g.n) for c in problem.per_vertex)
    raise ValueError(f"unknown problem type {type(problem).__name__}")


# ---------------------------------------------------------------------------
# The trusted validator
# ---------------------------------------------------------------------------


def validate_cut(
    g: Graph, spec: ProblemSpec | Problem, cut: Cut
) -> tuple[bool, Violation | None]:
    """Check a cut straight against the problem definition.

    Returns (True, None) when the cut is proper and every per-vertex
    condition holds, else (False, first violation).  Ignores mode and size
    target; evaluates definitions directly, never encodings.
    """
    problem = spec.problem if isinstance(spec, ProblemSpec) else spec
    if not cut.proper:
        return False, Violation(None, "improper_cut")

    left = cut.left
    for v in range(g.n):
        in_left = neighbor_count(g, v, left)
        in_right = g.degree(v) - in_left
        on_left = v in left
        if isinstance(problem, DCut):
            cross = in_right if on_left else in_left
            if cross > problem.d:
                return False, Violation(v, f"cross_degree>{problem.d}")
        elif isinstance(problem, InternalPartition):
            own, other = (in_left, in_right) if on_left else (in_right, in_left)
            if own < other:
                return False, Violation(v, "own_side_minority")
        elif isinstance(problem, AlphaBetaDomination):
            # Counts lie in [0, n-1], so raw intervals decide membership the
            # same way their clamped forms do.
            interval = problem.alpha if on_left else problem.beta
            if in_left not in interval:
                name = "alpha" if on_left else "beta"
                return False, Violation(v, f"left_neighbors_outside_{name}")
        elif isinstance(problem, IntervalConstrainedCut):
            c = problem.per_vertex[v]
            if on_left:
                if in_left not in c.left_own:
                    return False, Violation(v, "left_own")
                if in_right not in c.left_cross:
                    return False, Violation(v, "left_cross")
            else:
                if in_right not in c.right_own:
                    return False, Violation(v, "right_own")
                if in_left not in c.right_cross:
                    return False, Violation(v, "right_cross")
        else:
            raise ValueError(f"unknown problem type {type(problem).__name__}")
    return True, None


# ---------------------------------------------------------------------------
# Constraint-file format
# ---------------------------------------------------------------------------


def parse_constraints(text: str, n: int) -> tuple[VertexConstraints, ...]:
    """Parse per-vertex constraint lines "v a_lo a_hi b_lo b_hi c_lo c_hi d_lo d_hi".

    Vertex labels are 1-based and may appear in any order, each exactly once;
    '#' starts a comment.
    """
    rows: dict[int, VertexConstraints] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 9:
            raise ConstraintParseError(
                "bad_line", f"expected 9 fields per line, got {len(parts)}: {line!r}"
            )
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ConstraintParseError(
                "bad_line", f"non-integer field in {line!r}"
            ) from None
        v = nums[0]
        if not 1 <= v <= n:
            raise ConstraintParseError("bad_index", f"vertex {v} outside [1, {n}]")
        if v in rows:
            raise ConstraintParseError("duplicate_vertex", f"vertex {v} listed twice")
        try:
            rows[v] = VertexConstraints(
                Interval(nums[1], nums[2]),
                Interval(nums[3], nums[4]),
                Interval(nums[5], nums[6]),
                Interval(nums[7], nums[8]),
            )
        except ValueError as exc:
            raise ConstraintParseError("bad_interval", f"vertex {v}: {exc}") from None
    missing = [v for v in range(1, n + 1) if v not in rows]
    if missing:
        raise ConstraintParseError(
            "missing_vertex", f"no constraints for vertices {missing}"
        )
    return tuple(rows[v] for v in range(1, n + 1))
