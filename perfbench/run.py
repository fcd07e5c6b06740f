"""The splitcut benchmark: seeded workloads through the public library API.

    python3 perfbench/run.py --workload sweep-sparse --seed 1 --seconds 45 --trace 0

Load is a closed loop with one client in one process: each request is one
`splitcut.solve` call with default `SolverOptions`, and the next starts when
it returns.  A run cycles through the workload's request pool until every
request has run and `--seconds` have passed, then checks every answer
against the expected answers from the oracles (committed in `expected/` for
seed 1, computed before the timed phase for any other seed).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds per-layer metrics from requests traced with spans, each
paired with an untraced run of the same request to measure the overhead.  Wrong
answers or failed requests make the exit code 1.  Per-run details and the
spans go to `perfbench/results/`.

Only the standard library is imported at module level: the set-up time
measured in fresh processes must include importing the library.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 100

# Printed with every run but not listed in BENCHMARK.json: the answer
# checks are always 0 on a correct program, and the witness lookup and the
# benchmark's own per-request loop read 0 or next to nothing on most
# workloads.
UNLISTED_UNITS = {
    "wrong_answers": "count",
    "failed_ratio": "ratio",
    "dominance.witness_s": "s",
    "request.self_s": "s",
}


def set_up(workload: str, seed: int, tiny: bool, answers_path: Path):
    """Import the library, build the requests, load their answers, and run
    one warm-up solve.  Returns (requests, answers, seconds taken)."""
    t0 = time.perf_counter()
    import splitcut

    import answers
    from workloads import build_requests

    requests = build_requests(workload, seed, tiny=tiny)
    expected = answers.load(answers_path, requests)
    splitcut.solve(requests[0].graph, requests[0].spec)
    return requests, expected, time.perf_counter() - t0


def _run_child(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def answers_file(args, requests) -> Path:
    """The committed answers for this seed, or ones computed for this exact
    pool by an earlier run in this checkout, or freshly computed ones."""
    from workloads import pool_digest

    name = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    committed = HERE / "expected" / f"{name}.json"
    if committed.is_file():
        return committed
    out = RESULTS / f"expected-{name}-{pool_digest(requests)}.json"
    if not out.is_file():
        argv = [str(HERE / "answers.py"), "--workload", args.workload]
        argv += ["--seed", str(args.seed), "--out", str(out)]
        _run_child(argv + (["--tiny"] if args.tiny else []))
    return out


def setup_seconds(args, answers_path: Path) -> float:
    """Median set-up time over fresh processes."""
    argv = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--setup-probe", str(answers_path)] + (["--tiny"] if args.tiny else [])
    times = [json.loads(_run_child(argv).splitlines()[-1])["setup_s"] for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def timed_solve(req, tracer=None, first_id: int = 0):
    """One request.  Returns (result or the exception raised, seconds)."""
    import splitcut

    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = splitcut.solve(req.graph, req.spec)
        else:
            tracer.request = first_id + req.id
            with tracer.span("request"):
                out = splitcut.solve(req.graph, req.spec)
    except Exception as exc:  # a failed request is counted, not fatal
        out = exc
    return out, time.perf_counter() - t0


def grade(expected, runs) -> dict:
    """Check every outcome against its expected answer, outside all timing."""
    import answers
    from splitcut import ResourceLimitError

    tally = {"attempted": len(runs), "exceptions": 0, "aborts": 0, "wrong": 0}
    problems = []
    for req, out, _ in runs:
        rec = expected[req.id]
        if isinstance(out, ResourceLimitError):
            tally["aborts"] += 1
            problems.append(f"{req.label}: resource cap: {out}")
        elif isinstance(out, Exception):
            tally["exceptions"] += 1
            problems.append(f"{req.label}: {type(out).__name__}: {out}")
        else:
            why = answers.check(req, out, rec["answer"])
            if why is not None:
                tally["wrong"] += 1
                problems.append(f"{req.label}: {why} (oracle {rec['oracle']})")
    tally["failed"] = tally["exceptions"] + tally["aborts"] + tally["wrong"]
    tally["problems"] = problems
    return tally


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if samples * (1 - q / 100) >= 10:
            return q
    return 50.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure(args, requests, expected, answers_path: Path) -> tuple[dict, dict]:
    """End-to-end metrics: cycle through the pool, one request after another,
    until every request has run once and `--seconds` have passed."""
    runs = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    while len(runs) < len(requests) or time.perf_counter() - t0 < args.seconds:
        req = requests[len(runs) % len(requests)]
        runs.append((req, *timed_solve(req)))
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally = grade(expected, runs)

    # The median uses every request run.  The tail uses one sample per
    # request of the pool, its median time over its repeats, so the tail
    # percentile depends on the pool size alone.
    samples = [[] for _ in requests]
    for req, _, seconds in runs:
        samples[req.id].append(seconds)
    per_request = [statistics.median(s) for s in samples]
    q = tail_percentile(len(per_request))
    return {
        "solves_per_s": len(runs) / wall,
        "answer_s.p50": statistics.median(seconds for _, _, seconds in runs),
        "answer_s.tail": nearest_rank(per_request, q),
        "cpu_s_per_solve": cpu / len(runs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_seconds(args, answers_path),
    }, {
        "requests_run": len(runs),
        "wall_s": wall,
        "tail_percentile": q,
        "tail_samples": len(per_request),
        "per_request_s": {f"{r.label}#{r.id}": s for r, s in zip(requests, per_request)},
        "tally": tally,
    }


def measure_traced(args, requests, expected) -> tuple[dict, dict]:
    """Per-layer metrics: passes over the pool in which every request runs
    once untraced and once traced, back to back, in alternating order so
    neither side is always the one that finds caches warm.  Passes repeat
    while another fits in `--seconds`."""
    from tracing import Tracer, instrument, layer_metrics, write_spans

    runs, per_pass, walls = [], [], {"untraced": 0.0, "traced": 0.0}
    spans = []
    t0 = time.perf_counter()
    pass_s = 0.0
    while not per_pass or time.perf_counter() - t0 + pass_s <= args.seconds:
        start = time.perf_counter()
        tracer = Tracer()
        first_id = len(per_pass) * len(requests)
        for req in requests:
            for traced in (False, True) if req.id % 2 else (True, False):
                if traced:
                    with instrument(tracer) as absent:
                        out, seconds = timed_solve(req, tracer, first_id)
                else:
                    out, seconds = timed_solve(req)
                walls["traced" if traced else "untraced"] += seconds
                runs.append((req, out, seconds))
        pass_s = time.perf_counter() - start
        per_pass.append(layer_metrics(tracer, len(requests)))
        spans += tracer.spans
    tally = grade(expected, runs)

    values = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    values["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
    write_spans(spans_path, spans)
    return values, {
        "traced_passes": len(per_pass),
        "absent_layers": absent,
        "spans": str(spans_path.relative_to(ROOT)),
        "tally": tally,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="n <= 12 instances, for tests")
    ap.add_argument("--setup-probe", type=Path, metavar="ANSWERS", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "splitcut" / "__init__.py").is_file():
        print(f"error: no splitcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        *_, seconds = set_up(args.workload, args.seed, args.tiny, args.setup_probe)
        print(json.dumps({"setup_s": seconds}))
        return 0

    from workloads import WORKLOADS, build_requests

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    listed = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"
        ]
    }
    try:
        answers_path = answers_file(args, build_requests(args.workload, args.seed, args.tiny))
        requests, expected, _ = set_up(args.workload, args.seed, args.tiny, answers_path)
        if args.trace:
            values, details = measure_traced(args, requests, expected)
        else:
            values, details = measure(args, requests, expected, answers_path)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = details["tally"]
    values["wrong_answers"] = tally["wrong"]
    values["failed_ratio"] = tally["failed"] / tally["attempted"]
    units = UNLISTED_UNITS | listed
    for line in tally["problems"][:20]:
        print(f"WRONG {line}")
    summary = {k: v for k, v in details.items() if k not in ("tally", "per_request_s")}
    print(f"# {args.workload} seed={args.seed} {json.dumps(summary)}")
    for name, value in values.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args) | {"setup_probe": None}, "values": values} | details
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    correct = tally["failed"] == 0
    result = {
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in listed.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
