import json

import pytest

from splitcut.cli import make_parser, run

INDEX_ENGINES = ["bitset", "recursive", "naive"]

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
            "stored", "queries", "dim", "active_dim", "generated", "time_ms"
        }
        # 8n columns for n = 4; dropping trivially satisfied ones keeps fewer
        assert payload["stats"]["dim"] == 32
        assert 0 <= payload["stats"]["active_dim"] < 32
        # halves this small are enumerated in full: 2^2 rows each
        assert payload["stats"]["generated"] == 8

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
        c = run_json(capsys, args + ["--engine", "pairjoin"])
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
        # 2n columns encoded; each vertex's one edge keeps its two columns
        assert "dim=8 active_dim=8 generated=8" in out


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

    def test_instance_errors(self, instance):
        assert run(["solve", "--problem", "internal", "/no/such/file"]) == 3
        assert run(["solve", "--problem", "internal", instance("2 1\n1 1\n")]) == 3
        assert run(["solve", "--problem", "dcut", "--d", "9", instance(C4)]) == 3
        assert run(["count", "--problem", "internal", "--size", "4", instance(C4)]) == 3

    def test_resource_cap(self, instance, capsys):
        big = "\n".join(["30 0"]) + "\n"
        assert run(["count", "--problem", "internal", "--engine", "brute", instance(big)]) == 4

    def test_max_n_acknowledges(self, instance, capsys):
        n9 = "9 0\n"
        code = run(
            ["count", "--problem", "internal", "--engine", "brute", "--max-n", "9",
             "--json", instance(n9)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["count"] == "510"


class TestBench:
    def test_counts_agree_rowwise(self, capsys):
        code = run(
            ["bench", "--problem", "dcut", "--d", "1", "--n", "9:10",
             "--engines", "splitlist,brute,pairjoin", "--seed", "5", "--json"]
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
        assert header.startswith("problem,n,p,rep,seed,engine,status,count,time_ms")

    def test_bad_engine(self, capsys):
        assert run(["bench", "--problem", "internal", "--n", "6:6", "--engines", "magic"]) == 2


class TestParser:
    @pytest.mark.parametrize("command", ["solve", "count", "witness", "optimize"])
    def test_threads_default_is_one(self, command):
        direction = ["--minimize"] if command == "optimize" else []
        args = make_parser().parse_args(
            [command, "--problem", "internal", *direction, "g.txt"]
        )
        assert args.threads == 1

    def test_bench_threads_default_is_one(self):
        args = make_parser().parse_args(["bench", "--problem", "internal", "--n", "6:6"])
        assert args.threads == 1

    @pytest.mark.parametrize("command", ["solve", "count", "witness", "optimize", "bench"])
    def test_index_default_is_bitset(self, command):
        extra = {"optimize": ["--minimize", "g.txt"], "bench": ["--n", "6:6"]}
        args = make_parser().parse_args(
            [command, "--problem", "internal", *extra.get(command, ["g.txt"])]
        )
        assert args.index == "bitset"
