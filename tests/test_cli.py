import json
import random
from dataclasses import asdict, fields
from unittest import mock

import pytest

from splitcut import InternalPartition, ProblemSpec, SolverOptions, random_graph, solve
from splitcut.cli import make_parser, run
from splitcut.solver import SolveStats

INDEX_ENGINES = ["bitset", "naive"]

C4 = "4 4\n1 2\n2 3\n3 4\n4 1\n"
P4 = "4 3\n1 2\n2 3\n3 4\n"
K3 = "3 3\n1 2\n2 3\n1 3\n"
TWO_EDGES = "4 2\n1 2\n3 4\n"

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
        assert set(payload["stats"]) == {
            "stored", "queries", "dim", "active_dim", "generated", "mirrored", "cut_edges",
            "time_ms",
        }
        # every bisection of the 4-cycle cuts two edges, so the search keeps
        # the index split {1, 2} | {3, 4}
        assert payload["stats"]["cut_edges"] == 2
        # the cross-count cap 1 binds below each degree 2: two columns a
        # vertex and the two properness columns
        assert payload["stats"]["dim"] == 10
        # d-cut is symmetric, so the join is mirrored: vertex 4 stays on the
        # right, and the data side keeps the 2 of its 4 rows without it
        assert payload["stats"]["mirrored"] is True
        assert payload["stats"]["stored"] == 2
        # vertex 4's columns hold its sentinel or a count in every data
        # row, and with the whole-half row gone the second properness
        # column holds too: the drop of trivially satisfied columns keeps 6
        assert payload["stats"]["active_dim"] == 6
        # no vertex of a 2-vertex half has more than its cap of 1 placed
        # neighbour, so the first half keeps all 1 + 2 + 4 rows of its
        # levels and the second 1 + 2 + 2
        assert payload["stats"]["generated"] == 12

    def test_infeasible_is_exit_zero(self, instance, capsys):
        k4 = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
        payload = run_json(
            capsys, ["solve", "--problem", "dcut", "--d", "1", "--json", instance(k4)]
        )
        assert payload["feasible"] is False

    def test_engines_agree_except_stats(self, instance, capsys):
        path = instance(K3)
        args = ["count", "--problem", "abdom", "--alpha", "0:0", "--beta", "0:3", "--json", path]
        a = run_json(capsys, args + ["--engine", "splitlist"])
        b = run_json(capsys, args + ["--engine", "brute"])
        c = run_json(capsys, args + ["--engine", "splitlist", "--index", "naive"])
        for payload in (b, c):
            for key in RESULT_KEYS - {"stats"}:
                assert payload[key] == a[key]
        assert a["count"] == "3"


class TestCount:
    def test_index_engines_agree(self, instance, capsys):
        path = instance(C4)
        args = ["count", "--problem", "dcut", "--d", "1", "--json", path]
        payloads = [run_json(capsys, args + ["--index", i]) for i in INDEX_ENGINES]
        assert {p["count"] for p in payloads} == {"4"}
        assert len({json.dumps(p["stats"] | {"time_ms": 0}) for p in payloads}) == 1

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
        # each vertex has an edge, so both own-side lower bounds bind, next
        # to the two properness columns; the lower bound 1 caps each cross
        # count at 0, so a half keeps only the rows with both ends of its
        # edge on one side: 2 queries, and 1 data row, since internal
        # partition is symmetric and vertex 4 stays on the right.  Every
        # column but the first properness one then holds for every pair.
        # The index split cuts no edge, so the search keeps it.
        assert (
            "stored=1 queries=2 dim=10 active_dim=1 generated=12 mirrored=True cut_edges=0"
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
        path = instance(TWO_EDGES)
        common = ["--problem", "internal", "--json", path]
        counted = run_json(capsys, ["count", *common])["stats"]
        for direction in ("--minimize", "--maximize"):
            stats = run_json(capsys, ["optimize", direction, *common])["stats"]
            for key in ("stored", "queries", "dim", "active_dim", "generated"):
                assert stats[key] == counted[key]

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
        assert run(["count", "--problem", "internal", "--engine", "pairjoin", instance(C4)]) == 2

    def test_instance_errors(self, instance):
        assert run(["solve", "--problem", "internal", "/no/such/file"]) == 3
        assert run(["solve", "--problem", "internal", instance("2 1\n1 1\n")]) == 3
        assert run(["solve", "--problem", "dcut", "--d", "9", instance(C4)]) == 3
        assert run(["count", "--problem", "internal", "--size", "4", instance(C4)]) == 3

    def test_resource_cap(self, instance, capsys):
        big = "\n".join(["30 0"]) + "\n"
        assert run(["count", "--problem", "internal", "--engine", "brute", instance(big)]) == 4

    def test_vertex_cap_checked_before_allocation(self, instance, capsys):
        # a header far above the cap is refused before any per-vertex
        # storage is built, under the cap of the engine that runs
        huge = instance("1000000000000 0\n")
        assert run(["count", "--problem", "dcut", "--d", "1", huge]) == 4
        assert run(["oracle", "--problem", "internal", huge]) == 4
        n10 = instance("10 0\n", name="n10.txt")
        argv = ["count", "--problem", "internal", "--json", n10]
        with mock.patch("splitcut.cli.solve", side_effect=AssertionError) as solve:
            assert run([*argv, "--engine", "brute", "--max-n", "9"]) == 4
            assert run([*argv, "--max-n", "9"]) == 4
        solve.assert_not_called()
        assert "resource cap" in capsys.readouterr().err
        assert run(argv) == 0

    def test_max_n_acknowledges(self, instance, capsys):
        n9 = "9 0\n"
        code = run(
            ["count", "--problem", "internal", "--engine", "brute", "--max-n", "9",
             "--json", instance(n9)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["count"] == "510"

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
        code = run(
            ["bench", "--problem", "dcut", "--d", "1", "--n", "9:10",
             "--engines", "splitlist,brute", "--seed", "5", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        by_instance = {}
        for row in rows:
            assert row["status"] == "ok"
            by_instance.setdefault((row["n"], row["rep"]), set()).add(row["count"])
        assert all(len(counts) == 1 for counts in by_instance.values())

    def test_skips_over_guard(self, capsys):
        code = run(
            ["bench", "--problem", "internal", "--n", "27:27",
             "--engines", "brute", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["skipped"]

    def test_skipped_rows_build_no_instance(self, capsys):
        # rows above the cap of every engine requested are reported without
        # drawing a graph
        argv = ["bench", "--problem", "internal", "--n", "5:6", "--max-n", "4", "--json"]
        with mock.patch("splitcut.cli.random_graph") as draw:
            assert run(argv) == 0
        draw.assert_not_called()
        rows = json.loads(capsys.readouterr().out)
        assert [(row["n"], row["status"]) for row in rows] == [
            (5, "skipped"), (5, "skipped"), (6, "skipped"), (6, "skipped")
        ]
        assert {row["problem"] for row in rows} == {"internal"}
        # an engine whose cap the row fits still gets its instance
        argv = ["bench", "--problem", "internal", "--n", "4:5", "--engines", "brute",
                "--max-n", "4", "--json"]
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
            "problem,n,p,rep,seed,engine,status,count,time_ms,"
            "stored,queries,dim,active_dim,generated,mirrored,cut_edges"
        )

    def test_rows_carry_solve_stats(self, capsys):
        # a row's stats are those of solving its seeded graph; a skipped row
        # has none
        argv = ["bench", "--problem", "internal", "--n", "9:10", "--p", "0.3",
                "--engines", "splitlist,brute", "--max-n", "9", "--json"]
        assert run(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        names = [f.name for f in fields(SolveStats) if f.name != "time_ms"]
        assert [(row["n"], row["status"]) for row in rows] == [
            (9, "ok"), (9, "ok"), (10, "skipped"), (10, "skipped")
        ]
        g = random_graph(9, 0.3, random.Random(rows[0]["seed"]))
        spec = ProblemSpec(InternalPartition(), mode="count")
        for row, engine in zip(rows, ("splitlist", "brute")):
            stats = asdict(solve(g, spec, SolverOptions(engine=engine)).stats)
            assert {k: row[k] for k in names} == {k: stats[k] for k in names}
        assert rows[0]["cut_edges"] > 0 and rows[0]["generated"] > 0
        for row in rows[2:]:
            assert all(row[k] is None for k in names)

    def test_bad_engine(self, capsys):
        # an empty list is a usage error too, not a bare CSV header
        for engine in ("magic", "pairjoin", ",", ""):
            argv = ["bench", "--problem", "internal", "--n", "6:6", "--engines", engine]
            assert run(argv) == 2
        # no repetition is a usage error, not an empty table
        for reps in ("0", "-1"):
            argv = ["bench", "--problem", "internal", "--n", "6:6", "--reps", reps]
            assert run(argv) == 2


class TestParser:
    @pytest.mark.parametrize(
        "command", ["solve", "count", "witness", "optimize", "oracle", "bench"]
    )
    def test_threads_flag_rejected(self, command, instance):
        # every join runs in one thread and pruning is always on; no command
        # takes --threads or --no-prune
        extra = {"optimize": ["--minimize", instance(C4)], "bench": ["--n", "6:6"]}
        rest = ["--problem", "internal", *extra.get(command, [instance(C4)])]
        assert run([command, *rest]) == 0
        assert run([command, "--threads", "2", *rest]) == 2
        assert run([command, "--no-prune", *rest]) == 2

    @pytest.mark.parametrize("command", ["solve", "count", "witness", "optimize", "bench"])
    def test_index_default_is_bitset(self, command):
        extra = {"optimize": ["--minimize", "g.txt"], "bench": ["--n", "6:6"]}
        args = make_parser().parse_args(
            [command, "--problem", "internal", *extra.get(command, ["g.txt"])]
        )
        assert args.index == "bitset"
