"""Expected answers for the benchmark's requests, and the gate that checks them.

Answers come from the library's oracles, never from the solver alone:
`brute_force_count` (full 2^n enumeration, whose size strata also give
fixed-size, minimum and maximum answers) or, above its practical size,
`naive_pair_join` (the split pipeline joined pair by pair).  Each answer
records which oracle produced it.

Run as a script to write the answers for one workload and seed:

    python3 perfbench/answers.py --workload sweep-sparse --seed 1 --thorough \
        --out perfbench/expected/sweep-sparse-seed1.json

`--thorough` is how the committed files are made: brute force up to n=26,
and above it `naive_pair_join` cross-checked by `solve` with both index
engines.  Without it (answers for any other seed, computed before a run),
brute force is used only up to n=18 and on graphs whose min/max answers
need its size strata.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

BRUTE_MAX_N_THOROUGH = 26
BRUTE_MAX_N_FAST = 18


def _strata_answer(mode: str, size: int | None, res) -> dict:
    if mode in ("decide", "witness"):
        return {"feasible": res.count > 0}
    if mode == "count@half":
        return {"count": int(res.counts_by_size[size])}
    if mode == "minimize_left":
        return {"optimal_size": res.min_left}
    if mode == "maximize_left":
        return {"optimal_size": res.max_left}
    return {"count": res.count}


def _pair_join_answer(req, thorough: bool) -> dict:
    from splitcut import SolverOptions, naive_pair_join, solve

    if req.mode not in ("count", "count@half", "decide", "witness"):
        raise ValueError(f"{req.label}: no pair-join oracle for mode {req.mode}")
    spec = replace(req.spec, mode="count")
    count = naive_pair_join(req.graph, spec)
    if thorough:
        for engine in ("recursive", "naive"):
            opts = SolverOptions(engine="splitlist", index_engine=engine)
            got = solve(req.graph, spec, opts).count
            if got != count:
                raise RuntimeError(
                    f"{req.label}: naive_pair_join={count}, solve[{engine}]={got}"
                )
    if req.mode in ("decide", "witness"):
        return {"feasible": count > 0}
    return {"count": count}


def compute(requests, thorough: bool) -> list[dict]:
    """One expected-answer record per request, in request order."""
    from splitcut import brute_force_count

    from workloads import graph_digest

    brute_max = BRUTE_MAX_N_THOROUGH if thorough else BRUTE_MAX_N_FAST
    needs_strata = {"minimize_left", "maximize_left"}
    # A graph enumerated for its min/max answers gives all its other
    # answers from the same strata.
    enumerated = {req.graph_id for req in requests if req.mode in needs_strata}
    by_graph: dict[int, object] = {}
    out = []
    for req in requests:
        if req.n <= brute_max or req.graph_id in enumerated:
            if req.graph_id not in by_graph:
                by_graph[req.graph_id] = brute_force_count(req.graph, req.spec.problem)
            oracle = "brute_force_count"
            answer = _strata_answer(req.mode, req.size_target, by_graph[req.graph_id])
        else:
            oracle = "naive_pair_join"
            answer = _pair_join_answer(req, thorough)
        out.append(
            {
                "id": req.id,
                "label": req.label,
                "graph": graph_digest(req.graph),
                "oracle": oracle,
                "answer": answer,
            }
        )
    return out


def load(path: Path, requests) -> list[dict]:
    """Read answers and check they belong to exactly these requests."""
    from workloads import graph_digest

    records = json.loads(path.read_text())["requests"]
    if len(records) != len(requests):
        raise ValueError(f"{path}: {len(records)} answers for {len(requests)} requests")
    for rec, req in zip(records, requests):
        if (rec["id"], rec["label"], rec["graph"]) != (
            req.id,
            req.label,
            graph_digest(req.graph),
        ):
            raise ValueError(f"{path}: answer {rec['id']} is for another instance")
    return records


def check(req, result, answer: dict) -> str | None:
    """Why `result` disagrees with the expected answer, or None if it agrees."""
    from splitcut import validate_cut

    if "count" in answer:
        if result.count != answer["count"]:
            return f"count {result.count} != {answer['count']}"
        if result.feasible != (answer["count"] > 0):
            return f"feasible {result.feasible} with count {answer['count']}"
        return None
    if "optimal_size" in answer:
        want = answer["optimal_size"]
        if result.optimal_size != want or result.feasible != (want is not None):
            return f"optimal size {result.optimal_size} != {want}"
        return None
    if result.feasible != answer["feasible"]:
        return f"feasible {result.feasible} != {answer['feasible']}"
    if req.mode != "witness":
        return None
    cut = result.witness
    if not answer["feasible"]:
        return None if cut is None else "witness for an infeasible instance"
    if cut is None:
        return "no witness for a feasible instance"
    ok, violation = validate_cut(req.graph, req.spec.problem, cut)
    if not ok:
        return f"witness fails validation: {violation}"
    if req.size_target is not None and len(cut.left) != req.size_target:
        return f"witness left size {len(cut.left)} != {req.size_target}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--thorough", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from workloads import build_requests

    requests = build_requests(args.workload, args.seed, tiny=args.tiny)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "requests": compute(requests, args.thorough),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    partial = args.out.with_name(args.out.name + ".partial")
    partial.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(partial, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
