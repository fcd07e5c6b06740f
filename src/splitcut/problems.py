"""Problem specifications, the definition-direct cut validator, and the
reduction of every problem to its side intervals on ns(v) = |N(v) ∩ V_L|.

The validator works straight off the problem definitions and never touches
vector encodings; every other component is ultimately checked against it.
"""

from __future__ import annotations

import operator
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

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
    "parse_constraints",
    "side_intervals",
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
    _check_problem(spec.problem, g.n)
    if spec.size_target is not None and not 1 <= spec.size_target <= g.n - 1:
        raise ValueError(f"size target {spec.size_target} outside [1, {g.n - 1}]")
    if spec.mode not in MODES:
        raise ValueError(f"unknown mode {spec.mode!r}")


def _check_problem(problem: Problem, n: int) -> None:
    """Raise ValueError unless the problem is one of the four, a d-cut's d
    an integer in [0, n] and interval constraints given for n vertices."""
    if isinstance(problem, DCut):
        if not isinstance(problem.d, int | np.integer):
            raise ValueError(f"d={problem.d!r} is not an integer")
        if not 0 <= problem.d <= n:
            raise ValueError(f"d={problem.d} outside [0, {n}]")
    elif isinstance(problem, IntervalConstrainedCut):
        if len(problem.per_vertex) != n:
            raise ValueError(f"expected {n} vertex constraints, got {len(problem.per_vertex)}")
    elif not isinstance(problem, (InternalPartition, AlphaBetaDomination)):
        raise ValueError(f"unknown problem type {type(problem).__name__}")


# ---------------------------------------------------------------------------
# The reduction to side intervals
# ---------------------------------------------------------------------------


def side_intervals(g: Graph, problem: Problem) -> np.ndarray:
    """I_L(v) and I_R(v) of every vertex as the rows (low end, high end) of
    an (n, 2, 2) int16 table: the counts ns(v) = |N(v) ∩ V_L| that v
    accepts on the left and on the right.  This is the only reduction of a
    problem; an interval whose low end is above its high end is empty.

    Each family is read as four intervals per vertex, a (left own), b
    (left cross), c (right own) and d (right cross), every end not named
    being 0 or n: d-cut caps b and d at d; internal partition puts the low
    ends of a and c at ceil(deg(v)/2), which is an own count at least the
    cross count; (alpha, beta)-domination has a = alpha and d = beta;
    interval constraints give all four.  The own and cross counts of v add
    up to deg(v), so each side's two intervals meet in one on ns(v):

        I_L(v) = [max(a_lo, deg - b_hi), min(a_hi, deg - b_lo)],
        I_R(v) = [max(d_lo, deg - c_hi), min(d_hi, deg - c_lo)].

    The ends of alpha, beta and interval constraints are clipped into
    [0, n] first, as Python ints, with one UserWarning when any was cut
    off; counts lie in [0, n - 1], so clipping changes no answer.
    """
    n, deg = g.n, g.degrees
    _check_problem(problem, n)
    if isinstance(problem, DCut):
        d = operator.index(problem.d)
        ends = [0, n, 0, d, 0, n, 0, d]
    elif isinstance(problem, InternalPartition):
        own = (deg + 1) // 2
        ends = [own, n, 0, n, own, n, 0, n]
    elif isinstance(problem, AlphaBetaDomination):
        a, d = problem.alpha, problem.beta
        a_lo, a_hi, d_lo, d_hi = _clipped([a.lo, a.hi, d.lo, d.hi], n, _ABDOM_ENDS)
        ends = [a_lo, a_hi, 0, n, 0, n, d_lo, d_hi]
    else:
        flat = [
            end
            for c in problem.per_vertex
            for iv in (c.left_own, c.left_cross, c.right_own, c.right_cross)
            for end in (iv.lo, iv.hi)
        ]
        ends = np.array(_clipped(flat, n, _ICC_ENDS), dtype=np.int16).reshape(n, 8).T
    a_lo, a_hi, b_lo, b_hi, c_lo, c_hi, d_lo, d_hi = ends
    low_l, high_l = np.maximum(a_lo, deg - b_hi), np.minimum(a_hi, deg - b_lo)
    low_r, high_r = np.maximum(d_lo, deg - c_hi), np.minimum(d_hi, deg - c_lo)
    return np.stack([low_l, high_l, low_r, high_r], axis=1).reshape(n, 2, 2)


_ABDOM_ENDS = ("alpha.lo", "alpha.hi", "beta.lo", "beta.hi")
_ICC_ENDS = ("left_own.lo", "left_own.hi", "left_cross.lo", "left_cross.hi",
             "right_own.lo", "right_own.hi", "right_cross.lo", "right_cross.hi")
_PACKAGE = os.path.dirname(__file__) + os.sep


def _clipped(ends: list[int], n: int, names: tuple[str, ...]) -> list[int]:
    """The ends clipped into [0, n], with one warning that counts the ends
    cut off and names the first: end i is names[i % k] of vertex i // k,
    k = len(names), and the vertex is named when there are several."""
    out = [min(max(end, 0), n) for end in ends]
    if out != ends:
        cut = [i for i, (end, kept) in enumerate(zip(ends, out)) if end != kept]
        i, k = cut[0], len(names)
        first = f"vertex {i // k} {names[i % k]}" if len(ends) > k else names[i]
        # the warning names the first caller outside the package
        level, frame = 1, sys._getframe()
        while frame.f_back and frame.f_code.co_filename.startswith(_PACKAGE):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"{len(cut)} interval end(s) outside [0, {n}] clipped into it, "
            f"the first {first} = {ends[i]} to {out[i]}",
            stacklevel=level,
        )
    return out


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
