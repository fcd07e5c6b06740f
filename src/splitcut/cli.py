"""Command-line front end: parse instances, run engines, emit results.

Exit codes: 0 success (an infeasible instance is still success), 2 usage
error, 3 instance error (unreadable or malformed input, parameters that do
not fit the instance), 4 resource-cap abort.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time

from .errors import ResourceLimitError
from .graph import Graph, GraphParseError, parse_graph, random_graph
from .oracle import BRUTE_FORCE_MAX_N, PAIR_JOIN_MAX_N, brute_force_count
from .problems import (
    AlphaBetaDomination,
    ConstraintParseError,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    Problem,
    ProblemSpec,
    parse_constraints,
    validate_spec,
)
from .solver import SolveResult, SolverOptions, SolveStats, solve

__all__ = ["main", "run"]

SPLITLIST_DEFAULT_MAX_N = 40
INDEX_ENGINES = ["bitset", "recursive", "naive"]


def _interval_flag(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers LO:HI, got {text!r}") from None


class _UsageError(Exception):
    pass


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--problem",
        required=True,
        choices=["dcut", "internal", "abdom", "icc"],
        help="problem family",
    )
    p.add_argument("--d", type=int, default=None, help="cross-degree cap for dcut")
    p.add_argument("--alpha", type=_interval_flag, default=None, metavar="LO:HI")
    p.add_argument("--beta", type=_interval_flag, default=None, metavar="LO:HI")
    p.add_argument(
        "--constraints", default=None, metavar="FILE", help="per-vertex constraint file for icc"
    )


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine", choices=["splitlist", "brute", "pairjoin"], default="splitlist"
    )
    p.add_argument("--index", choices=INDEX_ENGINES, default="bitset")
    p.add_argument("--no-prune", action="store_true", help="disable partial-cut pruning")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=int, default=1, help="query worker threads"
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="acknowledge and raise the vertex-count caps to this value",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON result object")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitcut",
        description="Exact constrained-cut solving via half enumeration and dominance search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in [
        ("solve", "decide feasibility"),
        ("count", "count feasible ordered cuts"),
        ("witness", "produce one feasible cut"),
        ("optimize", "minimize or maximize the left side"),
        ("oracle", "brute-force reference answer"),
    ]:
        p = sub.add_parser(name, help=blurb)
        _add_problem_flags(p)
        if name == "optimize":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--minimize", action="store_true")
            group.add_argument("--maximize", action="store_true")
        else:
            p.add_argument("--size", type=int, default=None, help="require |V_L| = SIZE")
        _add_engine_flags(p)
        p.add_argument("instance", help="edge-list file")

    b = sub.add_parser("bench", help="time engines over generated instances")
    _add_problem_flags(b)
    b.add_argument("--n", type=_interval_flag, required=True, metavar="LO:HI")
    b.add_argument("--p", type=float, default=0.5, help="edge probability")
    b.add_argument("--reps", type=int, default=1)
    b.add_argument(
        "--engines",
        default="splitlist,brute",
        help="comma-separated engines to time",
    )
    b.add_argument("--index", choices=INDEX_ENGINES, default="bitset")
    b.add_argument("--no-prune", action="store_true")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--threads", type=int, default=1)
    b.add_argument("--max-n", type=int, default=None)
    b.add_argument("--json", action="store_true")
    return parser


def _build_problem(args: argparse.Namespace, g: Graph) -> tuple[Problem, str]:
    if args.problem == "dcut":
        if args.d is None:
            raise _UsageError("--problem dcut requires --d")
        if args.d < 0:
            raise _UsageError("--d must be nonnegative")
        return DCut(args.d), "dcut"
    if args.problem == "internal":
        return InternalPartition(), "internal"
    if args.problem == "abdom":
        if args.alpha is None or args.beta is None:
            raise _UsageError("--problem abdom requires --alpha and --beta")
        try:
            alpha = Interval(*args.alpha)
            beta = Interval(*args.beta)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        return AlphaBetaDomination(alpha, beta), "abdom"
    if args.constraints is None:
        raise _UsageError("--problem icc requires --constraints FILE")
    with open(args.constraints, encoding="utf-8") as fh:
        per_vertex = parse_constraints(fh.read(), g.n)
    return IntervalConstrainedCut(per_vertex), "icc"


def _options(args: argparse.Namespace, engine: str) -> SolverOptions:
    caps = {
        "max_n": SPLITLIST_DEFAULT_MAX_N,
        "brute_max_n": BRUTE_FORCE_MAX_N,
        "pairjoin_max_n": PAIR_JOIN_MAX_N,
    }
    if args.max_n is not None:
        caps = {k: args.max_n for k in caps}
    return SolverOptions(
        engine=engine,
        index_engine=args.index,
        prune=not args.no_prune,
        seed=args.seed,
        threads=max(1, args.threads),
        **caps,
    )


def _result_payload(problem_name: str, g: Graph, mode: str, result) -> dict:
    witness = None
    if result.witness is not None:
        witness = {"left": [v + 1 for v in sorted(result.witness.left)]}
    count = None
    if mode in ("count", "oracle") and result.count is not None:
        count = str(result.count)
    return {
        "problem": problem_name,
        "n": g.n,
        "mode": mode,
        "feasible": result.feasible,
        "count": count,
        "witness": witness,
        "optimal_size": result.optimal_size,
        "stats": {
            "stored": result.stats.stored,
            "queries": result.stats.queries,
            "dim": result.stats.dim,
            "active_dim": result.stats.active_dim,
            "generated": result.stats.generated,
            "time_ms": round(result.stats.time_ms, 3),
        },
    }


def _print_result(payload: dict, as_json: bool, extra: dict | None = None) -> None:
    if extra:
        payload = {**payload, **extra}
    if as_json:
        print(json.dumps(payload))
        return
    print(f"problem={payload['problem']} n={payload['n']} mode={payload['mode']}")
    print(f"feasible: {str(payload['feasible']).lower()}")
    if payload["count"] is not None:
        print(f"count: {payload['count']}")
    if payload["witness"] is not None:
        print("witness left side:", " ".join(map(str, payload["witness"]["left"])))
    if payload["optimal_size"] is not None:
        print(f"optimal size: {payload['optimal_size']}")
    if extra:
        for key, value in extra.items():
            print(f"{key}: {value}")
    stats = payload["stats"]
    print(
        f"stats: stored={stats['stored']} queries={stats['queries']} "
        f"dim={stats['dim']} active_dim={stats['active_dim']} "
        f"generated={stats['generated']} time_ms={stats['time_ms']}"
    )


def _run_instance_command(args: argparse.Namespace) -> int:
    try:
        with open(args.instance, encoding="utf-8") as fh:
            g = parse_graph(fh.read())
    except (OSError, GraphParseError) as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 3

    try:
        problem, problem_name = _build_problem(args, g)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ConstraintParseError) as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 3

    if args.command == "solve":
        mode = "decide"
    elif args.command in ("count", "witness"):
        mode = args.command
    elif args.command == "optimize":
        mode = "minimize_left" if args.minimize else "maximize_left"
    else:
        mode = "oracle"

    size = getattr(args, "size", None)
    spec = ProblemSpec(problem, size_target=size, mode="count" if mode == "oracle" else mode)
    opts = _options(args, args.engine)
    extra = None
    try:
        validate_spec(g, spec)
        if mode == "oracle":
            t0 = time.perf_counter()
            ref = brute_force_count(g, spec, max_n=opts.brute_max_n)
            elapsed = (time.perf_counter() - t0) * 1000.0
            result = SolveResult(
                feasible=ref.count > 0,
                count=ref.count,
                stats=SolveStats(time_ms=elapsed),
            )
            extra = {"min_left": ref.min_left, "max_left": ref.max_left}
        else:
            result = solve(g, spec, opts)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 3

    _print_result(_result_payload(problem_name, g, mode, result), args.json, extra)
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    lo, hi = args.n
    if lo < 1 or hi < lo:
        print("usage error: --n expects 1 <= LO <= HI", file=sys.stderr)
        return 2
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    for e in engines:
        if e not in ("splitlist", "brute", "pairjoin"):
            print(f"usage error: unknown engine {e!r}", file=sys.stderr)
            return 2
    if not 0.0 <= args.p <= 1.0:
        print("usage error: --p expects a probability", file=sys.stderr)
        return 2

    rows = []
    for n in range(lo, hi + 1):
        for rep in range(args.reps):
            instance_seed = args.seed * 100_000 + n * 100 + rep
            g = random_graph(n, args.p, random.Random(instance_seed))
            try:
                problem, problem_name = _build_problem(args, g)
            except _UsageError as exc:
                print(f"usage error: {exc}", file=sys.stderr)
                return 2
            except (OSError, ConstraintParseError) as exc:
                print(f"instance error: {exc}", file=sys.stderr)
                return 3
            spec = ProblemSpec(problem, mode="count")
            for engine in engines:
                opts = _options(args, engine)
                caps = {
                    "splitlist": opts.max_n,
                    "brute": opts.brute_max_n,
                    "pairjoin": opts.pairjoin_max_n,
                }
                row = {
                    "problem": problem_name,
                    "n": n,
                    "p": args.p,
                    "rep": rep,
                    "seed": instance_seed,
                    "engine": engine,
                    "status": "ok",
                    "count": None,
                    "time_ms": None,
                }
                if n > caps[engine]:
                    row["status"] = "skipped"
                else:
                    t0 = time.perf_counter()
                    try:
                        result = solve(g, spec, opts)
                    except ResourceLimitError as exc:
                        print(f"resource cap: {exc}", file=sys.stderr)
                        return 4
                    row["count"] = str(result.count)
                    row["time_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
                rows.append(row)

    if args.json:
        print(json.dumps(rows))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=[
                "problem", "n", "p", "rep", "seed", "engine", "status", "count", "time_ms",
            ],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        sys.stdout.write(buf.getvalue())
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "bench":
        return _run_bench(args)
    return _run_instance_command(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
