"""Exact solvers for constrained graph bipartition problems.

The core method enumerates the bipartitions of each half of the vertex set,
encodes them as integer vectors, and joins the two lists through a dominance
range-search index, so that a feasible combined cut corresponds exactly to a
dominating query/data pair.  Decision, counting, witness construction,
fixed-size, and size-optimization modes are supported for cross-degree-capped
cuts, own-side-majority partitions, interval domination, and fully
vertex-specific interval constraints, all cross-checked against brute-force
oracles.  Every mode runs one single-threaded join that counts matches per
data row label.  Fixed-size and min/max modes label the data rows by |S'|
and read the size strata |S| + |S'|; the other modes use one label, and
decision and witness modes stop at the first query chunk with a match.
"""

from .dominance import DominanceIndex, build_index
from .encoding import encode_half_row
from .errors import ResourceLimitError
from .graph import (
    Cut,
    Graph,
    GraphParseError,
    VertexSet,
    neighbor_count,
    parse_graph,
    random_graph,
    split_halves,
)
from .oracle import (
    OracleResult,
    brute_force_count,
    naive_pair_join,
)
from .problems import (
    AlphaBetaDomination,
    ConstraintParseError,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    ProblemSpec,
    VertexConstraints,
    Violation,
    parse_constraints,
    side_intervals,
    validate_cut,
)
from .solver import (
    SolveResult,
    SolverOptions,
    SolveStats,
    construct_witness,
    count_by_size,
    count_solutions,
    optimize_size,
    solve,
    solve_with_size,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaBetaDomination",
    "ConstraintParseError",
    "Cut",
    "DCut",
    "DominanceIndex",
    "Graph",
    "GraphParseError",
    "Interval",
    "IntervalConstrainedCut",
    "InternalPartition",
    "OracleResult",
    "ProblemSpec",
    "ResourceLimitError",
    "SolveResult",
    "SolveStats",
    "SolverOptions",
    "VertexConstraints",
    "VertexSet",
    "Violation",
    "brute_force_count",
    "build_index",
    "construct_witness",
    "count_by_size",
    "count_solutions",
    "encode_half_row",
    "naive_pair_join",
    "neighbor_count",
    "optimize_size",
    "parse_constraints",
    "parse_graph",
    "random_graph",
    "side_intervals",
    "solve",
    "solve_with_size",
    "split_halves",
    "validate_cut",
]
