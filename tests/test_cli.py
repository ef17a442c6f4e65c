"""Command-line behaviour: formats, exit codes, determinism."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galelemke
from galelemke import GaleString, enumerate_gale_vertices
from galelemke.cli import main
from galelemke.gameio import (
    format_profile,
    load_game,
    parse_profile,
    read_bgame,
    write_bgame,
    write_uvg,
)
from galelemke.errors import GameFormatError

GAME22_TEXT = """3 3
1 0 0
0 1 0
0 0 1

0 2 4
3 2 0
0 2 0
"""


@pytest.fixture
def game22_path(tmp_path):
    path = tmp_path / "AB.bgame"
    path.write_text(GAME22_TEXT)
    return str(path)


class TestFormats:
    def test_bgame_round_trip(self, game22):
        assert read_bgame(write_bgame(game22)) == game22

    def test_uvg_round_trip(self, tmp_path):
        from galelemke import triple_morris_game

        u = triple_morris_game(2)
        path = tmp_path / "g.uvg"
        path.write_text(write_uvg(u))
        assert load_game(str(path)) == u

    def test_parse_error_reports_position(self):
        with pytest.raises(GameFormatError) as info:
            read_bgame("3 3\n1 0 0\n0 x 0\n0 0 1\n\n0 2 4\n3 2 0\n0 2 0\n")
        assert info.value.line == 3
        assert info.value.column == 3

    def test_profile_round_trip(self, game22_equilibrium):
        text = format_profile(game22_equilibrium)
        assert text == "1/3 2/3 0 ; 1/2 1/2 0"
        assert parse_profile(text, 3, 3) == game22_equilibrium


class TestGen:
    def test_triple_morris_labels(self, tmp_path):
        out = tmp_path / "tm.uvg"
        assert main(["gen", "triple-morris", "--m", "6", "--out", str(out)]) == 0
        labels = out.read_text().splitlines()[1]
        assert labels == "6 4 5 2 3 1 1 3 2 5 4 6 6 4 5 2 3 1"

    def test_permutation_deterministic(self, tmp_path):
        a = tmp_path / "a.bgame"
        b = tmp_path / "b.bgame"
        main(["gen", "permutation", "--n", "5", "--seed", "7", "--out", str(a)])
        main(["gen", "permutation", "--n", "5", "--seed", "7", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_random_game_loads(self, tmp_path):
        out = tmp_path / "r.bgame"
        assert main(["gen", "random", "--m", "3", "--n", "3", "--seed", "1", "--out", str(out)]) == 0
        game = load_game(str(out))
        assert game.m == 3 and game.n == 3

    def test_shuffled_columns(self, tmp_path):
        plain = tmp_path / "p.uvg"
        mixed = tmp_path / "q.uvg"
        main(["gen", "triple-morris", "--m", "4", "--out", str(plain)])
        main(["gen", "triple-morris", "--m", "4", "--seed", "5", "--shuffle-columns", "--out", str(mixed)])
        assert plain.read_text() != mixed.read_text()


class TestSolve:
    def test_lh_walkthrough(self, game22_path, capsys):
        assert main(["solve", game22_path, "--method", "lh", "--missing-label", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1/3 2/3 0 ; 1/2 1/2 0"
        assert lines[1] == "path_length 8"

    def test_support_agrees(self, game22_path, capsys):
        assert main(["solve", game22_path, "--method", "support"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1/3 2/3 0 ; 1/2 1/2 0"
        assert lines[1].startswith("guesses ")

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.bgame"
        bad.write_text("3 3\n1 0\n")
        assert main(["solve", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_path_csv_dump(self, game22_path, tmp_path, capsys):
        out = tmp_path / "path.csv"
        main(["solve", game22_path, "--missing-label", "1", "--path-csv", str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["step", "dropped_label", "picked_label", "polytope", "basis"]
        assert len(rows) == 9
        assert rows[1][1:4] == ["1", "6", "P"]

    def test_uvg_input(self, tmp_path, capsys):
        out = tmp_path / "tm.uvg"
        main(["gen", "triple-morris", "--m", "2", "--out", str(out)])
        assert main(["solve", str(out), "--method", "lh"]) == 0


class TestVerify:
    def test_true_case(self, game22_path, capsys):
        code = main(
            ["verify", game22_path, "--profile", "1/3 2/3 0 ; 1/2 1/2 0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "true"
        assert lines[1] == "labels 3,4,5 | 1,2,6"

    def test_false_case_reports_missing(self, game22_path, capsys):
        main(["verify", game22_path, "--profile", "1 0 0 ; 1 0 0"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "false"
        assert lines[2].startswith("missing ")

    def test_pipe_round_trip(self, game22_path, capsys):
        main(["solve", game22_path, "--method", "lh", "--missing-label", "4"])
        equilibrium_line = capsys.readouterr().out.splitlines()[0]
        assert main(["verify", game22_path, "--profile", equilibrium_line]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "true"


class TestBench:
    def test_morris_growth_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "morris", "--m", "4..10", "--labels", "1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "growth m=6:" in printed
        rows = list(csv.DictReader(out.open()))
        assert [r["path_length"] for r in rows] == ["6", "16", "40", "98"]
        assert all(r["truncated"] == "false" for r in rows)

    def test_deterministic_modulo_wall_time(self, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            main(["bench", "morris", "--m", "4..8", "--labels", "all", "--out", str(out)])
            rows = [r[:9] + r[10:] for r in csv.reader(out.open())]
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_triple_matches_single(self, tmp_path):
        single = tmp_path / "s.csv"
        triple = tmp_path / "t.csv"
        main(["bench", "morris", "--m", "4..8", "--labels", "1", "--out", str(single)])
        main(["bench", "triple-morris", "--m", "4..8", "--labels", "1", "--out", str(triple)])
        lengths = lambda p: [r["path_length"] for r in csv.DictReader(p.open())]
        assert lengths(single) == lengths(triple)

    def test_permutation_exhaustive_mean(self, tmp_path, capsys):
        out = tmp_path / "perm.csv"
        main(["bench", "permutation", "--n", "4", "--exhaustive", "--out", str(out)])
        printed = capsys.readouterr().out
        assert "mean_equilibria 4 " in printed
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 24

    def test_permutation_seeded_guesses(self, tmp_path):
        out = tmp_path / "perm-seeded.csv"
        main(["bench", "permutation", "--n", "4", "--seeds", "5", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 5
        assert all(int(r["guesses"]) >= 1 for r in rows)

    def test_support_solver_mode(self, tmp_path):
        out = tmp_path / "support.csv"
        main(
            ["bench", "triple-morris", "--m", "2..2", "--solver", "support",
             "--seeds", "10", "--out", str(out)]
        )
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 10
        assert all(r["solver"] == "support" for r in rows)
        assert all(1 <= int(r["guesses"]) <= 13 for r in rows)

    def test_lh_solver_mode(self, tmp_path):
        out = tmp_path / "lh.csv"
        main(
            ["bench", "triple-morris", "--m", "2..4", "--solver", "lh",
             "--labels", "1", "--out", str(out)]
        )
        rows = list(csv.DictReader(out.open()))
        # product-polytope walks alternate sides: twice the one-polytope length
        assert [r["path_length"] for r in rows] == ["4", "12"]

    def test_step_cap_marks_truncated_and_skips_ratio(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GALELEMKE_STEP_CAP", "20")
        out = tmp_path / "capped.csv"
        main(["bench", "morris", "--m", "4..8", "--labels", "1", "--out", str(out)])
        printed = capsys.readouterr().out
        rows = list(csv.DictReader(out.open()))
        assert [r["truncated"] for r in rows] == ["false", "false", "true"]
        assert "growth m=8:" not in printed
        assert "growth m=6:" in printed


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.uvg"
        # the child finds the package where this process found it
        src = str(Path(galelemke.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-m", "galelemke.cli", "gen", "morris", "--m", "4", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert out.exists()

    def test_parallel_bench_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["bench", "morris", "--m", "4..8", "--labels", "all", "--out", str(serial)])
        main(["bench", "morris", "--m", "4..8", "--labels", "all", "--jobs", "2", "--out", str(parallel)])
        strip = lambda p: [r[:9] + r[10:] for r in csv.reader(p.open())]
        assert strip(serial) == strip(parallel)


def test_gale_text_convention():
    # figure convention for strings: ones as '1', zeros as dots
    assert str(GaleString.from_text("1100")) == "11.."
    assert [str(s) for s in enumerate_gale_vertices(2, 4)][-1] == "11.."
