"""Command-line front end: parse instances, solve them, emit results.

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
from dataclasses import asdict, fields

from .errors import ResourceLimitError
from .graph import Graph, parse_graph, random_graph
from .oracle import BRUTE_FORCE_MAX_N, brute_force_count
from .problems import (
    AlphaBetaDomination,
    DCut,
    Interval,
    IntervalConstrainedCut,
    InternalPartition,
    Problem,
    ProblemSpec,
    parse_constraints,
    validate_spec,
)
from .solver import SolveResult, SolveStats, solve

__all__ = ["main", "run"]

# the vertex cap of the commands that run `solve`, unless --max-n is given
# (`oracle` takes the brute-force guard)
SOLVE_DEFAULT_MAX_N = 40
# the `SolveStats` fields a bench row carries after its own time_ms
BENCH_STATS = [f.name for f in fields(SolveStats) if f.name != "time_ms"]


def _interval_flag(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers LO:HI, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-n",
        type=_positive_int,
        default=None,
        help="acknowledge and raise the vertex-count cap to this value",
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
        _add_common_flags(p)
        p.add_argument("instance", help="edge-list file")

    b = sub.add_parser("bench", help="time solves of generated instances")
    _add_problem_flags(b)
    b.add_argument("--n", type=_interval_flag, required=True, metavar="LO:HI")
    b.add_argument("--p", type=float, default=0.5, help="edge probability")
    b.add_argument("--reps", type=_positive_int, default=1)
    b.add_argument("--seed", type=int, default=0)
    _add_common_flags(b)
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


def _cap(args: argparse.Namespace) -> int:
    """The vertex cap of the command: --max-n, or the default of its route."""
    if args.max_n is not None:
        return args.max_n
    return BRUTE_FORCE_MAX_N if args.command == "oracle" else SOLVE_DEFAULT_MAX_N


def _result_payload(problem_name: str, g: Graph, mode: str, result) -> dict:
    witness = None
    if result.witness is not None:
        witness = {"left": [v + 1 for v in sorted(result.witness.left)]}
    count = None
    if mode in ("count", "oracle") and result.count is not None:
        count = str(result.count)
    stats = asdict(result.stats)
    return {
        "problem": problem_name,
        "n": g.n,
        "mode": mode,
        "feasible": result.feasible,
        "count": count,
        "witness": witness,
        "optimal_size": result.optimal_size,
        "stats": {**stats, "time_ms": round(stats["time_ms"], 3)},
    }


def _format_result(payload: dict, as_json: bool, extra: dict | None = None) -> str:
    if extra:
        payload = {**payload, **extra}
    if as_json:
        return json.dumps(payload) + "\n"
    lines = [
        f"problem={payload['problem']} n={payload['n']} mode={payload['mode']}",
        f"feasible: {str(payload['feasible']).lower()}",
    ]
    if payload["count"] is not None:
        lines.append(f"count: {payload['count']}")
    if payload["witness"] is not None:
        lines.append("witness left side: " + " ".join(map(str, payload["witness"]["left"])))
    if payload["optimal_size"] is not None:
        lines.append(f"optimal size: {payload['optimal_size']}")
    lines.extend(f"{key}: {value}" for key, value in (extra or {}).items())
    lines.append("stats: " + " ".join(f"{k}={v}" for k, v in payload["stats"].items()))
    return "\n".join(lines) + "\n"


def _run_instance_command(args: argparse.Namespace) -> str:
    cap = _cap(args)
    with open(args.instance, encoding="utf-8") as fh:
        g = parse_graph(fh.read(), max_n=cap)
    problem, problem_name = _build_problem(args, g)

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
    validate_spec(g, spec)
    extra = None
    if mode == "oracle":
        t0 = time.perf_counter()
        ref = brute_force_count(g, spec, max_n=cap)
        elapsed = (time.perf_counter() - t0) * 1000.0
        result = SolveResult(
            feasible=ref.count > 0, count=ref.count, stats=SolveStats(time_ms=elapsed)
        )
        extra = {"min_left": ref.min_left, "max_left": ref.max_left}
    else:
        result = solve(g, spec)
    return _format_result(_result_payload(problem_name, g, mode, result), args.json, extra)


def _run_bench(args: argparse.Namespace) -> str:
    lo, hi = args.n
    if lo < 1 or hi < lo:
        raise _UsageError("--n expects 1 <= LO <= HI")
    if not 0.0 <= args.p <= 1.0:
        raise _UsageError("--p expects a probability")

    cap = _cap(args)
    rows = []
    for n in range(lo, hi + 1):
        for rep in range(args.reps):
            instance_seed = args.seed * 100_000 + n * 100 + rep
            row = {
                "problem": args.problem,
                "n": n,
                "p": args.p,
                "rep": rep,
                "seed": instance_seed,
                "status": "ok",
                "count": None,
                "time_ms": None,
                **dict.fromkeys(BENCH_STATS),
            }
            rows.append(row)
            # a row over the cap draws no graph and builds no problem
            if n > cap:
                row["status"] = "skipped"
                continue
            g = random_graph(n, args.p, random.Random(instance_seed))
            spec = ProblemSpec(_build_problem(args, g)[0], mode="count")
            t0 = time.perf_counter()
            result = solve(g, spec)
            elapsed = time.perf_counter() - t0
            row["count"] = str(result.count)
            row["time_ms"] = round(elapsed * 1000.0, 3)
            stats = asdict(result.stats)
            row.update((k, stats[k]) for k in BENCH_STATS)

    if args.json:
        return json.dumps(rows) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def run(argv: list[str] | None = None) -> int:
    """Run one command; its output goes to stdout only when it succeeds, and
    a refusal prints one line to stderr and returns the exit code of its kind."""
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = _run_bench(args) if args.command == "bench" else _run_instance_command(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        # GraphParseError and ConstraintParseError are ValueErrors
        print(f"instance error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
