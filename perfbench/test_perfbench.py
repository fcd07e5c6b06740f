"""Tests of the benchmark itself, on instances with n <= 12.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import splitcut  # noqa: E402
import splitcut.solver  # noqa: E402
from run import timed_solve  # noqa: E402
from tracing import Tracer, instrument, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, build_requests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--tiny", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=root,
    )


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    """A copy of the benchmark, with or without the library beside it."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_benchmark_json_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, wl.why) for name, wl in WORKLOADS.items()
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed(workload, trace, section):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == want
    if trace == 0:
        printed = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()[:-1]}
        assert printed["wrong_answers"] == "count" and printed["failed_ratio"] == "ratio"
        assert set(want) <= set(printed)


def test_corrupted_answer_is_caught(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    answers_path = root / "perfbench" / "expected" / "sweep-sparse-seed5-tiny.json"
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "answers.py"), "--workload", "sweep-sparse",
         "--seed", "5", "--tiny", "--out", str(answers_path)],
        check=True,
        timeout=120,
    )
    doc = json.loads(answers_path.read_text())
    doc["requests"][1]["answer"]["count"] += 1
    answers_path.write_text(json.dumps(doc))

    proc = _bench(root, "--workload", "sweep-sparse", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "wrong_answers                1 count" in proc.stdout


def test_without_sources_fails_without_result(tmp_path):
    root = _checkout(tmp_path, with_sources=False)
    proc = _bench(root, "--workload", "sweep-sparse", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_partition_each_request(workload):
    requests = build_requests(workload, 3, tiny=True)
    tracer = Tracer()
    with instrument(tracer) as absent:
        for req in requests:
            out, _ = timed_solve(req, tracer)
            assert not isinstance(out, Exception)
    assert absent == []
    own = self_times(tracer.spans)
    for req in requests:
        roots = [s for s in tracer.spans if s.request == req.id and s.parent is None]
        assert [s.name for s in roots] == ["request"]
        total = sum(t for s, t in zip(tracer.spans, own) if s.request == req.id)
        assert total == pytest.approx(roots[0].end - roots[0].start, rel=1e-9, abs=1e-12)
        assert all(t >= -1e-9 for t in own)
    metrics = layer_metrics(tracer, len(requests))
    nested = workload == "mixed-modes"
    assert (metrics["solver.solves_per_request"] > 1) == nested


def test_instrument_restores_and_reports_absent_layers(monkeypatch):
    original = splitcut.solver.solve
    monkeypatch.delattr(splitcut.solver, "build_index")
    with instrument(Tracer()) as absent:
        assert splitcut.solver.solve is not original
    assert absent == ["dominance.build"]
    assert splitcut.solver.solve is original and splitcut.solve is original
    assert not hasattr(splitcut.solver, "build_index")
