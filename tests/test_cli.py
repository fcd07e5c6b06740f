import itertools
import json
import random
from dataclasses import asdict, fields
from unittest import mock

import pytest

from splitcut import DCut, InternalPartition, ProblemSpec, brute_force_count, random_graph, solve
from splitcut.cli import run
from splitcut.solver import SolveStats


def edge_list(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


C4 = "4 4\n1 2\n2 3\n3 4\n4 1\n"
P4 = "4 3\n1 2\n2 3\n3 4\n"
K3 = "3 3\n1 2\n2 3\n1 3\n"
TWO_EDGES = "4 2\n1 2\n3 4\n"
# the path 1-2-...-10, large enough for the solving commands to join
P10 = edge_list(10, [(v, v + 1) for v in range(1, 10)])
# the cliques on 1..20 and 21..41, above the default cap of 40
TWO_CLIQUES = edge_list(
    41, [e for part in (range(1, 21), range(21, 42)) for e in itertools.combinations(part, 2)]
)
ZERO_STATS = {
    "stored": 0, "queries": 0, "dim": 0, "active_dim": 0, "generated": 0, "mirrored": False,
    "cut_edges": 0,
}

RESULT_KEYS = {"problem", "n", "mode", "feasible", "count", "witness", "optimal_size", "stats"}


@pytest.fixture
def instance(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestSolve:
    def test_c4_dcut_json(self, instance, capsys):
        payload = run_json(
            capsys, ["solve", "--problem", "dcut", "--d", "1", "--json", instance(C4)]
        )
        assert set(payload) == RESULT_KEYS
        assert payload["feasible"] is True
        assert payload["count"] is None
        assert payload["mode"] == "decide"
        # a graph of at most 8 vertices is solved by enumerating every cut,
        # so the join stats stay zero (the join's own on the 4-cycle are in
        # test_solver's TestNamedInstances)
        stats = payload["stats"]
        assert stats.pop("time_ms") >= 0
        assert stats == ZERO_STATS

    def test_infeasible_is_exit_zero(self, instance, capsys):
        k4 = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
        payload = run_json(
            capsys, ["solve", "--problem", "dcut", "--d", "1", "--json", instance(k4)]
        )
        assert payload["feasible"] is False

    def test_engines_agree_except_stats(self, instance, capsys):
        # count joins at n=10, and oracle enumerates every cut
        path = instance(P10)
        args = ["--problem", "abdom", "--alpha", "0:1", "--beta", "0:2", "--json", path]
        joined = run_json(capsys, ["count", *args])
        enumerated = run_json(capsys, ["oracle", *args])
        for key in RESULT_KEYS - {"stats", "mode"}:
            assert joined[key] == enumerated[key]
        assert joined["stats"]["queries"] > 0 and enumerated["stats"]["queries"] == 0
        assert int(joined["count"]) > 0


class TestCount:
    def test_two_edges_internal(self, instance, capsys):
        payload = run_json(
            capsys, ["count", "--problem", "internal", "--json", instance(TWO_EDGES)]
        )
        assert payload["count"] == "2"

    def test_size_flag(self, instance, capsys):
        payload = run_json(
            capsys,
            ["count", "--problem", "internal", "--size", "2", "--json", instance(TWO_EDGES)],
        )
        assert payload["count"] == "2"


class TestWitnessCommand:
    def test_witness_is_one_based(self, instance, capsys):
        payload = run_json(
            capsys, ["witness", "--problem", "internal", "--json", instance(TWO_EDGES)]
        )
        assert payload["witness"]["left"] in ([1, 2], [3, 4])

    def test_text_output(self, instance, capsys):
        assert run(["witness", "--problem", "internal", instance(TWO_EDGES)]) == 0
        out = capsys.readouterr().out
        assert "witness left side:" in out
        # four vertices are solved by enumeration, with no join to report
        assert (
            "stored=0 queries=0 dim=0 active_dim=0 generated=0 mirrored=False cut_edges=0"
            in out
        )


class TestOptimize:
    def test_maximize(self, instance, capsys):
        payload = run_json(
            capsys,
            [
                "optimize", "--problem", "abdom", "--alpha", "0:0", "--beta", "0:3",
                "--maximize", "--json", instance(K3),
            ],
        )
        assert payload["optimal_size"] == 1
        assert payload["mode"] == "maximize_left"

    def test_stats_match_count(self, instance, capsys):
        # min/max read the size strata of the join a count runs
        path = instance(P10)
        common = ["--problem", "internal", "--json", path]
        counted = run_json(capsys, ["count", *common])["stats"]
        for direction in ("--minimize", "--maximize"):
            stats = run_json(capsys, ["optimize", direction, *common])["stats"]
            for key in ("stored", "queries", "dim", "active_dim", "generated"):
                assert stats[key] == counted[key]
        assert counted["queries"] > 0

    def test_requires_direction(self, instance, capsys):
        code = run(["optimize", "--problem", "internal", instance(P4)])
        assert code == 2


class TestOracleCommand:
    def test_reports_extremes(self, instance, capsys):
        payload = run_json(
            capsys, ["oracle", "--problem", "dcut", "--d", "1", "--json", instance(C4)]
        )
        assert payload["count"] == "4"
        assert payload["min_left"] == 2 and payload["max_left"] == 2


class TestIccFile:
    def test_constraints_file(self, instance, capsys, tmp_path):
        cons = tmp_path / "cons.txt"
        # every vertex: own-side counts free, cross counts capped at 1
        cons.write_text(
            "\n".join(f"{v} 0 4 0 1 0 4 0 1" for v in range(1, 5)) + "\n"
        )
        payload = run_json(
            capsys,
            ["count", "--problem", "icc", "--constraints", str(cons), "--json", instance(C4)],
        )
        assert payload["count"] == "4"  # same as dcut d=1 on C4

    def test_missing_constraints_flag(self, instance, capsys):
        assert run(["count", "--problem", "icc", instance(C4)]) == 2

    def test_bad_constraints_file(self, instance, capsys, tmp_path):
        cons = tmp_path / "cons.txt"
        cons.write_text("1 0 4 0 1 0 4 0 1\n")  # vertices 2..4 missing
        code = run(
            ["count", "--problem", "icc", "--constraints", str(cons), instance(C4)]
        )
        assert code == 3


class TestExitCodes:
    def test_usage_errors(self, instance):
        assert run(["solve", "--problem", "dcut", instance(C4)]) == 2  # missing --d
        assert run(["solve", "--problem", "nope", instance(C4)]) == 2
        assert run(["solve", "--bogus"]) == 2
        assert run(["solve", "--problem", "abdom", "--alpha", "5", "--beta", "0:1", instance(C4)]) == 2
        assert run(["solve", "--problem", "abdom", "--alpha", "3:1", "--beta", "0:1", instance(C4)]) == 2
        # only bench takes --seed, where it picks the instances
        for command in ("solve", "count", "witness", "oracle"):
            assert run([command, "--problem", "internal", "--seed", "1", instance(C4)]) == 2
        # the route is fixed: no engine or index choice
        for flag in (["--engine", "brute"], ["--engine", "pairjoin"], ["--index", "naive"]):
            assert run(["count", "--problem", "internal", *flag, instance(C4)]) == 2

    def test_instance_errors(self, instance):
        assert run(["solve", "--problem", "internal", "/no/such/file"]) == 3
        assert run(["solve", "--problem", "internal", instance("2 1\n1 1\n")]) == 3
        assert run(["solve", "--problem", "dcut", "--d", "9", instance(C4)]) == 3
        assert run(["count", "--problem", "internal", "--size", "4", instance(C4)]) == 3

    def test_resource_cap(self, instance, capsys):
        assert run(["count", "--problem", "internal", instance("41 0\n")]) == 4
        assert run(["oracle", "--problem", "internal", instance("27 0\n")]) == 4

    def test_vertex_cap_checked_before_allocation(self, instance, capsys):
        # a header far above the cap is refused before any per-vertex
        # storage is built, under the cap of the command
        huge = instance("1000000000000 0\n")
        assert run(["count", "--problem", "dcut", "--d", "1", huge]) == 4
        assert run(["oracle", "--problem", "internal", huge]) == 4
        n10 = instance("10 0\n", name="n10.txt")
        argv = ["count", "--problem", "internal", "--json", n10]
        with mock.patch("splitcut.cli.solve", side_effect=AssertionError) as solve:
            assert run([*argv, "--max-n", "9"]) == 4
        solve.assert_not_called()
        assert "resource cap" in capsys.readouterr().err
        assert run(argv) == 0

    def test_max_n_acknowledges(self, instance, capsys):
        # 41 vertices are over the default cap of 40 until --max-n raises it;
        # one clique a side is the only 0-cut, in either order
        argv = ["count", "--problem", "dcut", "--d", "0", "--json", instance(TWO_CLIQUES)]
        assert run(argv) == 4
        assert run([*argv, "--max-n", "41"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == "2"

    def test_max_n_below_one(self, instance, capsys):
        # a cap below 1 is a usage error, not a resource-cap abort
        path = instance(C4)
        for cap in ("0", "-1", "x"):
            assert run(["count", "--problem", "internal", "--max-n", cap, path]) == 2
            argv = ["bench", "--problem", "internal", "--n", "6:6", "--max-n", cap]
            assert run(argv) == 2
        assert capsys.readouterr().out == ""


class TestBench:
    def test_counts_agree_rowwise(self, capsys):
        # each row's count is the oracle's on its seeded graph
        code = run(
            ["bench", "--problem", "dcut", "--d", "1", "--n", "7:10", "--reps", "2",
             "--seed", "5", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["n"], row["rep"]) for row in rows] == [
            (n, rep) for n in range(7, 11) for rep in range(2)
        ]
        for row in rows:
            assert row["status"] == "ok"
            g = random_graph(row["n"], 0.5, random.Random(row["seed"]))
            assert row["count"] == str(brute_force_count(g, DCut(1)).count)

    def test_skips_over_guard(self, capsys):
        code = run(["bench", "--problem", "internal", "--n", "41:41", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["skipped"]

    def test_skipped_rows_build_no_instance(self, capsys):
        # rows above the cap are reported without drawing a graph
        argv = ["bench", "--problem", "internal", "--n", "5:6", "--max-n", "4", "--json"]
        with mock.patch("splitcut.cli.random_graph") as draw:
            assert run(argv) == 0
        draw.assert_not_called()
        rows = json.loads(capsys.readouterr().out)
        assert [(row["n"], row["status"]) for row in rows] == [(5, "skipped"), (6, "skipped")]
        assert {row["problem"] for row in rows} == {"internal"}
        # a row the cap fits still gets its instance
        argv = ["bench", "--problem", "internal", "--n", "4:5", "--max-n", "4", "--json"]
        with mock.patch("splitcut.cli.random_graph", wraps=random_graph) as draw:
            assert run(argv) == 0
        assert [c.args[0] for c in draw.call_args_list] == [4]
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["ok", "skipped"]

    def test_deterministic(self, capsys):
        argv = ["bench", "--problem", "internal", "--n", "8:9", "--reps", "2",
                "--seed", "3", "--json"]
        assert run(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(argv) == 0
        second = json.loads(capsys.readouterr().out)
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "time_ms"} for row in rows
        ]
        assert strip(first) == strip(second)

    def test_csv_output(self, capsys):
        assert run(["bench", "--problem", "internal", "--n", "6:6"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header == (
            "problem,n,p,rep,seed,status,count,time_ms,"
            "stored,queries,dim,active_dim,generated,mirrored,cut_edges"
        )

    def test_rows_carry_solve_stats(self, capsys):
        # a row's stats are those of solving its seeded graph, zero where
        # it is small enough to enumerate; a skipped row has none
        argv = ["bench", "--problem", "internal", "--n", "8:10", "--p", "0.3",
                "--max-n", "9", "--json"]
        assert run(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        names = [f.name for f in fields(SolveStats) if f.name != "time_ms"]
        assert [(row["n"], row["status"]) for row in rows] == [
            (8, "ok"), (9, "ok"), (10, "skipped")
        ]
        spec = ProblemSpec(InternalPartition(), mode="count")
        for row in rows[:2]:
            g = random_graph(row["n"], 0.3, random.Random(row["seed"]))
            stats = asdict(solve(g, spec).stats)
            assert {k: row[k] for k in names} == {k: stats[k] for k in names}
        assert {k: rows[0][k] for k in names} == ZERO_STATS
        assert rows[1]["cut_edges"] > 0 and rows[1]["generated"] > 0
        assert all(rows[2][k] is None for k in names)

    def test_bad_engine(self, capsys):
        # bench times the one solve route: it takes no engine list
        for engine in ("splitlist", "brute", ","):
            argv = ["bench", "--problem", "internal", "--n", "6:6", "--engines", engine]
            assert run(argv) == 2
        # no repetition is a usage error, not an empty table
        for reps in ("0", "-1"):
            argv = ["bench", "--problem", "internal", "--n", "6:6", "--reps", reps]
            assert run(argv) == 2

    def test_instance_error(self, capsys):
        # a parameter the drawn graph does not fit is an instance error, as
        # for the instance commands, not a traceback
        argv = ["bench", "--problem", "dcut", "--d", "9", "--n", "4:5"]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("instance error: ") and "d=9" in captured.err
        assert captured.out == ""


class TestExitPaths:
    """Each kind of refusal prints one line to stderr, nothing to stdout, and
    returns its exit code."""

    def refused(self, capsys, argv, code, prefix):
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        return captured.err

    def test_bench_usage_errors(self, capsys):
        bench = ["bench", "--problem", "internal"]
        err = self.refused(capsys, [*bench, "--n", "5:3"], 2, "usage error: ")
        assert "--n expects 1 <= LO <= HI" in err
        err = self.refused(capsys, [*bench, "--n", "6:6", "--p", "1.5"], 2, "usage error: ")
        assert "--p expects a probability" in err
        argv = ["bench", "--problem", "dcut", "--n", "6:6"]
        assert "requires --d" in self.refused(capsys, argv, 2, "usage error: ")

    def test_memory_guard(self, instance, capsys):
        # 44 vertices pass the acknowledged cap, and the join's memory
        # estimate refuses them before any row is built
        with mock.patch("splitcut.solver.build_join_inputs", side_effect=AssertionError):
            argv = ["count", "--problem", "internal", "--max-n", "44", instance("44 0\n")]
            err = self.refused(capsys, argv, 4, "resource cap: ")
            assert "MiB exceeds the budget" in err
            argv = ["bench", "--problem", "internal", "--n", "44:44", "--max-n", "44"]
            err = self.refused(capsys, argv, 4, "resource cap: ")
            assert "MiB exceeds the budget" in err


class TestParser:
    @pytest.mark.parametrize(
        "command", ["solve", "count", "witness", "optimize", "oracle", "bench"]
    )
    def test_threads_flag_rejected(self, command, instance):
        # every join runs in one thread, pruning is always on and the route
        # is fixed; no command takes --threads, --no-prune, --engine or --index
        extra = {"optimize": ["--minimize", instance(C4)], "bench": ["--n", "6:6"]}
        rest = ["--problem", "internal", *extra.get(command, [instance(C4)])]
        assert run([command, *rest]) == 0
        for flag in (["--threads", "2"], ["--no-prune"], ["--engine", "brute"], ["--index", "naive"]):
            assert run([command, *flag, *rest]) == 2
