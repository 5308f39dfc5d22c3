"""CLI tests drive ``main(argv)`` directly: it returns the process exit code
(0 found, 1 bad input, 2 exhausted/neither), which CliRunner would swallow."""

import csv
import json

import numpy as np
import pytest

from opsys.cli import main
from opsys.serialize import (
    dumps,
    graph_to_json,
    read_json,
    system_from_json,
    system_to_json,
    write_json,
)
from opsys.systems import random_system

from instances import fail_first_solve


@pytest.fixture()
def system_file(tmp_path):
    def make(name, n, dim, seed=0):
        path = tmp_path / name
        write_json(path, system_to_json(random_system(n, dim, seed=seed)))
        return str(path)

    return make


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_random_system_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "random", "--n", "4", "--dim", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4 and len(obj["basis"]) == 5

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "gen", "--kind", "random", "--n", "3", "--dim", "4",
                "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_diagonal(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "diagonal", "--n", "5")
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_rowcolumn_dimension(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "rowcolumn", "--n", "6")
        assert code == 0
        v = system_from_json(json.loads(out))
        assert v.dim == 12

    def test_graph_kind(self, capsys, tmp_path):
        from opsys.constructions import SimpleGraph

        gpath = tmp_path / "g.json"
        g = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        gpath.write_text(dumps(graph_to_json(g)))
        code, out, _ = run(capsys, "gen", "--kind", "graph", "--graph-file", str(gpath))
        assert code == 0
        assert len(json.loads(out)["basis"]) == 3 + 4

    def test_flag_combination_errors(self, capsys, tmp_path):
        # --dim only makes sense for random systems
        code, _, err = run(capsys, "gen", "--kind", "diagonal", "--n", "4", "--dim", "2")
        assert code == 1
        # graph generation takes the size from the file, not --n
        gpath = tmp_path / "g.json"
        gpath.write_text(dumps(graph_to_json(__import__("opsys").SimpleGraph.from_edges(2, []))))
        code, _, _ = run(capsys, "gen", "--kind", "graph", "--graph-file", str(gpath), "--n", "3")
        assert code == 1
        # random requires both --n and --dim
        code, _, _ = run(capsys, "gen", "--kind", "random", "--n", "4")
        assert code == 1
        # --graph-file only with graph
        code, _, _ = run(capsys, "gen", "--kind", "diagonal", "--n", "3", "--graph-file", str(gpath))
        assert code == 1

    def test_invalid_dim_rejected(self, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "random", "--n", "3", "--dim", "99")
        assert code == 1


class TestFind:
    def test_clique_exit_zero(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 4, 16)
        out = tmp_path / "cert.json"
        code, _, _ = run(capsys, "find", path, "--k", "2", "--out", str(out))
        assert code == 0
        cert = read_json(out)
        assert cert["kind"] == "clique" and cert["compressed_dim"] == 4

    def test_anticlique_mode(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 7, 2)
        out = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "find", path, "--k", "2", "--mode", "anticlique", "--out", str(out)
        )
        assert code == 0
        assert read_json(out)["kind"] == "anticlique"

    def test_anticlique_mode_survives_solver_breakdown(self, capsys, system_file, monkeypatch):
        # a LAPACK error inside one least-squares solve is no traceback
        path = system_file("v.json", 7, 3)
        fail_first_solve(monkeypatch)
        code, _, _ = run(capsys, "find", path, "--k", "2", "--mode", "anticlique")
        assert code in (0, 2)

    def test_mode_filter_exit_two(self, capsys, system_file):
        # a full matrix algebra has no 2-anticlique: demanding one exits 2
        path = system_file("v.json", 3, 9)
        code, out, _ = run(capsys, "find", path, "--k", "2", "--mode", "anticlique")
        assert code == 2

    def test_two_clique_mode(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 5, 8)
        out = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "find", path, "--k", "2", "--mode", "two-clique", "--out", str(out)
        )
        assert code == 0
        assert read_json(out)["kind"] == "clique"

    def test_two_clique_guards(self, capsys, system_file):
        path = system_file("v.json", 5, 8)
        code, _, _ = run(capsys, "find", path, "--k", "3", "--mode", "two-clique")
        assert code == 1
        small = system_file("small.json", 5, 3)
        code, _, _ = run(capsys, "find", small, "--k", "2", "--mode", "two-clique")
        assert code == 1

    def test_k_out_of_range(self, capsys, system_file):
        path = system_file("v.json", 4, 4)
        code, _, _ = run(capsys, "find", path, "--k", "9")
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "find", str(tmp_path / "absent.json"), "--k", "2")
        assert code == 1

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "find", str(bad), "--k", "2")
        assert code == 1

    def test_seed_changes_nothing_deterministic(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 9, 5)
        outs = []
        for name in ("c1.json", "c2.json"):
            target = tmp_path / name
            code, _, _ = run(
                capsys, "find", path, "--k", "2", "--seed", "31", "--out", str(target)
            )
            assert code == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_matches_flag(self, capsys, system_file, tmp_path, monkeypatch):
        path = system_file("v.json", 9, 5)
        flagged = tmp_path / "flag.json"
        code, _, _ = run(
            capsys, "find", path, "--k", "2", "--seed", "77", "--out", str(flagged)
        )
        assert code == 0
        monkeypatch.setenv("OPSYS_SEED", "77")
        env = tmp_path / "env.json"
        code, _, _ = run(capsys, "find", path, "--k", "2", "--out", str(env))
        assert code == 0
        assert flagged.read_bytes() == env.read_bytes()

    def test_tolerance_flags_recorded(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 4, 16)
        out = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "--tol-rank", "1e-8", "--tol-cert", "1e-10",
            "find", path, "--k", "2", "--out", str(out),
        )
        assert code == 0
        assert read_json(out)["tol"] == {"rank_rel": 1e-8, "cert_rel": 1e-10}

    def test_inconsistent_tolerances_rejected(self, capsys, system_file):
        path = system_file("v.json", 3, 2)
        code, _, _ = run(
            capsys, "--tol-rank", "1e-12", "--tol-cert", "1e-9", "find", path, "--k", "2"
        )
        assert code == 1


class TestVerify:
    def test_round_trip_agreement(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 4, 16)
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "find", path, "--k", "2", "--out", str(cert_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", path, str(cert_path))
        assert code == 0
        assert "kind=clique" in out
        assert "compressed_dim=4" in out

    def test_neither_exits_two(self, capsys, tmp_path):
        from opsys.constructions import diagonal_system
        from opsys.linalg import Projection
        from opsys.serialize import projection_to_json

        vpath = tmp_path / "v.json"
        write_json(vpath, system_to_json(diagonal_system(5)))
        ppath = tmp_path / "p.json"
        write_json(ppath, projection_to_json(Projection.coordinate(5, [0, 1])))
        code, out, _ = run(capsys, "verify", str(vpath), str(ppath))
        assert code == 2
        assert "kind=neither" in out

    def test_rank_override_mismatch(self, capsys, system_file, tmp_path):
        from opsys.linalg import Projection
        from opsys.serialize import projection_to_json

        path = system_file("v.json", 4, 5)
        ppath = tmp_path / "p.json"
        write_json(ppath, projection_to_json(Projection.coordinate(4, [0, 1])))
        code, _, _ = run(capsys, "verify", path, str(ppath), "--k", "3")
        assert code == 1

    def test_non_numeric_entries_fail_cleanly(self, capsys, system_file, tmp_path):
        from opsys.linalg import Projection
        from opsys.serialize import projection_to_json

        obj = read_json(system_file("v.json", 4, 5))
        obj["basis"][0]["entries"][0] = ["1.5", "2"]
        bad = tmp_path / "bad.json"
        write_json(bad, obj)
        ppath = tmp_path / "p.json"
        write_json(ppath, projection_to_json(Projection.coordinate(4, [0, 1])))
        code, _, err = run(capsys, "verify", str(bad), str(ppath))
        assert code == 1
        assert "cannot read operator system" in err and "pairs of numbers" in err

    def test_malformed_projection(self, capsys, system_file, tmp_path):
        path = system_file("v.json", 4, 5)
        bad = tmp_path / "p.json"
        bad.write_text('{"frame": "nope"}')
        code, _, _ = run(capsys, "verify", path, str(bad))
        assert code == 1


class TestExperiments:
    def read_report(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    def test_dichotomy_scan(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, text, _ = run(
            capsys, "experiment", "dichotomy-scan", "--k", "2", "--n", "9",
            "--samples", "6", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        header, rows = self.read_report(out)
        assert header == ["n", "k", "dim", "seed", "outcome", "compressed_dim", "wall_time_ms"]
        assert len(rows) == 6
        # per-sample seeds are seed + row index
        assert [r[3] for r in rows] == [str(3 + i) for i in range(6)]
        assert all(r[0] == "9" and r[1] == "2" for r in rows)
        assert "6 rows" in text

    def test_dichotomy_scan_fixed_dim(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "experiment", "dichotomy-scan", "--k", "2", "--n", "8",
            "--samples", "4", "--dim", "3", "--out", str(out),
        )
        assert code == 0
        _, rows = self.read_report(out)
        assert all(r[2] == "3" for r in rows)

    def test_two_clique_rate(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, text, _ = run(
            capsys, "experiment", "two-clique-rate", "--n", "3:5",
            "--samples", "4", "--out", str(out),
        )
        assert code == 0
        _, rows = self.read_report(out)
        assert len(rows) == 12  # 4 samples for each of n = 3, 4, 5
        assert [r[0] for r in rows] == ["3"] * 4 + ["4"] * 4 + ["5"] * 4
        # global row index seeds the samples
        assert [r[3] for r in rows] == [str(i) for i in range(12)]
        assert all(r[4] == "clique" for r in rows)

    def test_diagonal_trichotomy(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, text, _ = run(
            capsys, "experiment", "diagonal-trichotomy", "--k", "2", "--n", "7",
            "--samples", "10", "--out", str(out),
        )
        assert code == 0
        _, rows = self.read_report(out)
        assert len(rows) == 10
        assert all(r[4] in ("clique", "anticlique") for r in rows)

    def test_bad_range_rejected(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "experiment", "two-clique-rate", "--n", "5:3",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1

    def test_reports_reproducible(self, capsys, tmp_path):
        paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "experiment", "diagonal-trichotomy", "--k", "2", "--n", "7",
                "--samples", "5", "--seed", "4", "--out", str(p),
            )
            assert code == 0
        a = [r[:6] for r in csv.reader(paths[0].open())]
        b = [r[:6] for r in csv.reader(paths[1].open())]
        # identical apart from wall-clock timings
        assert a == b


class TestTopLevel:
    def test_no_args_is_a_usage_error(self, capsys):
        code = main([])
        assert code == 1
        assert "Usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) != 0
