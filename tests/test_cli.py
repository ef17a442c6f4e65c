"""Command-line behaviour: formats, exit codes, determinism."""

import csv
import io
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import galelemke
from galelemke import (
    BimatrixGame,
    GaleString,
    MixedProfile,
    UnitVectorGame,
    as_fraction,
    enumerate_gale_vertices,
    triple_morris_game,
)
from galelemke import cli, polytope
from galelemke.cli import build_parser, main
from galelemke.gameio import (
    _parse_int,
    _parse_rational,
    format_profile,
    load_game,
    parse_profile,
    save_game,
    read_bgame,
    read_uvg,
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


payoffs = st.fractions(min_value=-99, max_value=99, max_denominator=12)


@st.composite
def bimatrix_games(draw):
    """Games with negative and p/q payoffs, 1..4 x 1..4."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(st.lists(payoffs, min_size=n, max_size=n), min_size=m, max_size=m)
    return BimatrixGame.from_rows(draw(matrix), draw(matrix))


@st.composite
def unit_vector_games(draw, max_n=6):
    """A label string over 1..m and a B with negative and p/q payoffs."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, max_n))
    ell = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(payoffs, min_size=n, max_size=n), min_size=m, max_size=m))
    return UnitVectorGame.of(m, ell, b)


def mixed_strategies(size: int):
    weights = st.lists(st.integers(0, 12), min_size=size, max_size=size).filter(any)
    return weights.map(lambda w: [Fraction(v, sum(w)) for v in w])


# digits of any script (Nd), signs, separators, exponents and superscripts,
# which are digits to str.isdigit but not to int or Fraction
rational_tokens = st.text(
    st.one_of(st.sampled_from("0123456789+-_/.eE\u00b9\u00b2\u00b3"), st.characters(categories=["Nd"])),
    max_size=10,
)


def exit_code(argv) -> int:
    """What ``galelemke argv`` exits with: main's return value, or the code
    of the SystemExit with which argparse refuses a command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def states_refusal(err: str, rule: str) -> bool:
    """Whether the error line of ``err`` states ``rule`` itself or argparse's
    refusal of the option the rule names first."""
    line, option = err.splitlines()[-1], rule.split()[0]
    return rule in line or f"unrecognized arguments: {option}" in line or f"argument {option}:" in line


profiles = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.builds(MixedProfile.of, mixed_strategies(mn[0]), mixed_strategies(mn[1]))
)


class TestFormats:
    @settings(max_examples=50)
    @given(bimatrix_games())
    @example(read_bgame(GAME22_TEXT))
    def test_bgame_round_trip(self, game):
        assert read_bgame(write_bgame(game)) == game

    @settings(max_examples=50)
    @given(unit_vector_games())
    @example(triple_morris_game(2))
    def test_uvg_round_trip(self, u):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.uvg"
            path.write_text(write_uvg(u))
            assert load_game(str(path)) == u

    def test_save_then_load_follows_the_suffix(self, tmp_path, game22):
        u = triple_morris_game(4)
        for name, game, loaded in [
            ("u.uvg", u, u),
            ("u.bgame", u, u.to_bimatrix()),
            ("u.txt", u, u.to_bimatrix()),
            ("g.bgame", game22, game22),
        ]:
            save_game(str(tmp_path / name), game)
            assert load_game(str(tmp_path / name)) == loaded

    def test_parse_error_reports_position(self):
        with pytest.raises(GameFormatError) as info:
            read_bgame("3 3\n1 0 0\n0 x 0\n0 0 1\n\n0 2 4\n3 2 0\n0 2 0\n")
        assert info.value.line == 3
        assert info.value.column == 3

    def test_bgame_trailing_content_rejected(self):
        with pytest.raises(GameFormatError) as info:
            read_bgame(GAME22_TEXT + "\n1 2 3\n")
        assert info.value.line == 10

    def test_uvg_trailing_content_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.uvg"
        path.write_text("2 2\n1 2\n1 0\n0 1\nextra row\n")
        assert main(["solve", str(path)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_trailing_blank_lines_accepted(self, game22):
        assert read_bgame(GAME22_TEXT + "\n  \n\n") == game22
        assert read_uvg("2 2\n1 2\n1 0\n0 1\n\n") == read_uvg("2 2\n1 2\n1 0\n0 1\n")

    @given(profiles)
    @example(MixedProfile.of(["1/3", "2/3", 0], ["1/2", "1/2", 0]))
    def test_profile_round_trip(self, profile):
        text = format_profile(profile)
        assert text == " ".join(map(str, profile.x)) + " ; " + " ".join(map(str, profile.y))
        assert parse_profile(text, len(profile.x), len(profile.y)) == profile

    @pytest.mark.parametrize(
        "text, token, column",
        [
            ("1/2 abc ; 1/3 1/3 1/3", "abc", 5),
            ("1/2 1/2 ; 1/3 abc 2/3", "abc", 15),
            ("x= 1/2 1/2 ; y= 1/3 1/x 1/3", "1/x", 21),
            ("x=1/2 1/2;y=1/3 abc 2/3", "abc", 17),
            ("1/2 1/2;1/3 1/3 1/0", "1/0", 17),
        ],
    )
    def test_profile_parse_error_column(self, text, token, column):
        with pytest.raises(GameFormatError) as info:
            parse_profile(text, 2, 3)
        assert info.value.line == 1
        assert info.value.column == column
        assert text[column - 1 : column - 1 + len(token)] == token

    def test_profile_without_separator(self):
        with pytest.raises(GameFormatError, match='with a single ";"'):
            parse_profile("1/2 1/2 1/3 1/3 1/3", 2, 3)

    @settings(max_examples=400)
    @given(rational_tokens)
    @example("1" * 4301)  # past int's default digit limit: both parsers refuse it
    @example("\u0663\uff12/-4")
    @example("1_000/3_0")
    @example("\u00b2")
    @example("1/0")
    @example("1e1000000")  # 9 bytes that Fraction reads as a 3.3-million-bit integer
    @example("0.5")
    @example("1_0")
    @example("+3")
    @example("-07/010")
    def test_parse_rational_is_fraction_of_the_token(self, token):
        # the documented grammar "p" or "p/q": ASCII digits, a minus only on p, q > 0
        expected = None
        if re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", token):
            try:
                expected = Fraction(token)
            except ValueError:  # past int's digit limit
                pass
        if expected is None:
            with pytest.raises(GameFormatError) as info:
                _parse_rational(token, 4, 7)
            assert (info.value.line, info.value.column) == (4, 7)
            with pytest.raises(ValueError):
                as_fraction(token)  # the Python API reads text with the same grammar
        else:
            value = _parse_rational(token, 4, 7)
            assert type(value) is Fraction and value == expected == as_fraction(token)

    @settings(max_examples=400)
    @given(rational_tokens)
    @example("1" * 4301)
    @example("1_0")
    @example("\u0662")
    @example("+1")
    @example("-07")
    @example("--1")
    @example("-")
    def test_parse_int_reads_the_integer_grammar(self, token):
        # m, n and the labels: ASCII "-?[0-9]+", the integer half of the payoff grammar
        expected = None
        if re.fullmatch(r"-?[0-9]+", token):
            try:
                expected = int(token)
            except ValueError:  # past int's digit limit
                pass
        if expected is None:
            with pytest.raises(GameFormatError, match="bad integer") as info:
                _parse_int(token, 4, 7)
            assert (info.value.line, info.value.column) == (4, 7)
        else:
            assert _parse_int(token, 4, 7) == expected


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

    def test_permutation_size_from_pi(self, tmp_path):
        out = tmp_path / "pi.bgame"
        assert main(["gen", "permutation", "--pi", "2 3 1", "--out", str(out)]) == 0
        game = load_game(str(out))
        assert game.m == 3 and game.n == 3

    def test_permutation_n_must_match_pi(self, tmp_path, capsys):
        out = tmp_path / "pi.bgame"
        assert main(["gen", "permutation", "--n", "3", "--pi", "2 1", "--out", str(out)]) == 2
        assert "disagrees with --pi" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--pi", "", "--n", "3"], ["--pi", "   "]])
    def test_blank_pi_refused(self, tmp_path, capsys, args):
        # a blank --pi is an empty permutation, not a request for a random one
        out = tmp_path / "pi.bgame"
        assert main(["gen", "permutation", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: n must be at least 1"
        assert not out.exists()

    def test_permutation_needs_n_or_pi(self, tmp_path, capsys):
        out = tmp_path / "pi.bgame"
        assert main(["gen", "permutation", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith("--n or --pi is required for family permutation")
        assert not out.exists()

    def test_unit_vector_game_as_bgame_solves(self, tmp_path, capsys):
        # the file format follows the suffix, so solve reads what gen wrote
        bgame, uvg = tmp_path / "m4.bgame", tmp_path / "m4.uvg"
        assert main(["gen", "morris", "--m", "4", "--out", str(bgame)]) == 0
        assert main(["gen", "morris", "--m", "4", "--out", str(uvg)]) == 0
        capsys.readouterr()
        assert main(["solve", str(bgame)]) == 0
        from_bgame = capsys.readouterr().out
        assert main(["solve", str(uvg)]) == 0
        assert capsys.readouterr().out == from_bgame

    def test_bimatrix_game_as_uvg_is_refused(self, tmp_path, capsys):
        out = tmp_path / "p.uvg"
        assert main(["gen", "permutation", "--n", "3", "--out", str(out)]) == 2
        assert "unit-vector game" in capsys.readouterr().err
        assert not out.exists()

    def test_shuffled_columns(self, tmp_path):
        plain = tmp_path / "p.uvg"
        mixed = tmp_path / "q.uvg"
        main(["gen", "triple-morris", "--m", "4", "--out", str(plain)])
        main(["gen", "triple-morris", "--m", "4", "--seed", "5", "--shuffle-columns", "--out", str(mixed)])
        assert plain.read_text() != mixed.read_text()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["random", "--m", "3", "--n", "3", "--pi", "2 1"], "--pi needs family permutation"),
            (["random", "--m", "3", "--n", "3", "--shuffle-columns"], "--shuffle-columns needs family morris"),
            (["morris", "--m", "4", "--no-filter"], "--no-filter needs family random"),
            (["permutation", "--n", "3", "--m", "4"], "--m needs family morris"),
            (["morris", "--m", "4", "--n", "9"], "--n needs family permutation"),
            (["morris", "--m", "4", "--seed", "5"], "--seed needs family random"),
            (["permutation", "--pi", "2 1", "--seed", "5"], "--seed needs family random"),
        ],
    )
    def test_unread_option_refused(self, tmp_path, capsys, args, message):
        # an option the family does not read would be dropped in silence:
        # the family's parser refuses it, or a check states the rule
        out = tmp_path / "game.bgame"
        assert exit_code(["gen", *args, "--out", str(out)]) == 2
        assert states_refusal(capsys.readouterr().err, message)
        assert not out.exists()

    def test_seed_read_by_shuffled_columns(self, tmp_path):
        out = tmp_path / "m.uvg"
        assert main(["gen", "morris", "--m", "4", "--shuffle-columns", "--seed", "5", "--out", str(out)]) == 0

    def test_labels_past_nine_are_comma_separated(self, tmp_path, capsys):
        out = tmp_path / "m10.uvg"
        assert main(["gen", "morris", "--m", "10", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert printed == "labels " + ",".join(out.read_text().splitlines()[1].split())
        assert printed.startswith("labels 10,")


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

    @pytest.mark.parametrize(
        "name, text, profile, message, where",
        [
            ("g.bgame", "x 3\n", None, "bad integer 'x'", "(line 1, column 1)"),
            ("g.bgame", "1_0 1\n1\n\n1\n", None, "bad integer '1_0'", "(line 1, column 1)"),
            ("g.uvg", "2 2\n1 \u0662\n1 0\n0 1\n", None, "bad integer '\u0662'", "(line 2, column 3)"),
            ("g.bgame", "2 2\n1 0\n", None, "unexpected end of file, expected a row of A", "(line 3)"),
            ("g.bgame", "2 2\n\n1 0\n", None, "expected a row of A, got a blank line", "(line 2)"),
            ("g.bgame", "1 1\n1\n2\n1\n", None, "expected a blank line between A and B", "(line 3)"),
            ("g.bgame", "0 2\n", None, "m and n must be positive", "(line 1)"),
            ("g.bgame", "1 1\n1e1000000\n\n1\n", None, "bad rational '1e1000000'", "(line 2, column 1)"),
            ("g.uvg", "2 2\n1 3\n1 0\n0 1\n", None, "label 3 out of range 1..2", "(line 2, column 3)"),
            ("g.bgame", "2\n", None, 'expected 2 values for the header "m n", got 1', "(line 1)"),
            ("g.uvg", "2 2 2\n", None, 'expected 2 values for the header "m n", got 3', "(line 1)"),
            ("g.bgame", "2 2\n1 0 1\n0 1\n", None, "expected 2 values for a row of A, got 3", "(line 2)"),
            ("g.bgame", "2 2\n1 0\n0 1\n", None, "unexpected end of file, expected a blank line", "(line 4)"),
            ("g.bgame", "2 2\n1 0\n0 1\n\n1 0\n0 1 1\n", None, "expected 2 values for a row of B, got 3", "(line 6)"),
            ("g.bgame", "2 2\n1 0\n0 1\n\n1 0\n\n0 1\n", None, "expected a row of B, got a blank line", "(line 6)"),
            ("g.bgame", "1 1\n1\n\n1\n\n\n5\n", None, "unexpected content after the last row of B", "(line 7)"),
            ("g.uvg", "2 2\n1 2\n1 0\n0 1\n\nx\n", None, "unexpected content after the last row of B", "(line 6)"),
            ("g.uvg", "2 2\n\n1 0\n0 1\n", None, "expected the label string, got a blank line", "(line 2)"),
            ("g.uvg", "2 2\n1\n1 0\n0 1\n", None, "expected 2 values for the label string, got 1", "(line 2)"),
            ("g.uvg", "2 2\n1 2 1\n1 0\n0 1\n", None, "expected 2 values for the label string, got 3", "(line 2)"),
            ("g.uvg", "2 2\n", None, "unexpected end of file, expected the label string", "(line 2)"),
            ("g.uvg", "2 2\n1 2\n1 0\n", None, "unexpected end of file, expected a row of B", "(line 4)"),
            ("g.bgame", GAME22_TEXT, "1 0 ; 1 0 0", "expected 3 + 3 rationals, got 2 + 3", "(line 1)"),
            ("g.bgame", GAME22_TEXT, "1 1 0 ; 1 0 0", "x must sum to 1, got 2", "(line 1)"),
        ],
    )
    def test_format_error_names_its_line(self, tmp_path, capsys, name, text, profile, message, where):
        # the column is named where one token is at fault
        path = tmp_path / name
        path.write_text(text)
        argv = ["solve", str(path)] if profile is None else ["verify", str(path), "--profile", profile]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"parse error: {message} {where}\n"
        assert captured.out == ""

    def test_path_csv_dump(self, game22_path, tmp_path, capsys):
        out = tmp_path / "path.csv"
        main(["solve", game22_path, "--missing-label", "1", "--path-csv", str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["step", "dropped_label", "picked_label", "polytope", "basis"]
        assert len(rows) == 9
        assert rows[1][1:4] == ["1", "6", "P"]

    def test_path_csv_basis_column(self, game22_path, tmp_path):
        # the moved side's basis: x_i / s_j basic in P, r_i / y_j basic in Q
        out = tmp_path / "path.csv"
        assert main(["solve", game22_path, "--missing-label", "1", "--path-csv", str(out)]) == 0
        rows = list(csv.reader(out.open()))[1:]
        assert [row[0] for row in rows] == [str(step) for step in range(1, 9)]
        assert [row[3] for row in rows] == ["P", "Q"] * 4
        assert [row[4] for row in rows] == [
            "x1;s1;s2", "r1;r2;y3", "x1;x3;s1", "r1;y2;y3",
            "x1;x2;s1", "r1;r3;y2", "x1;x2;s3", "r3;y1;y2",
        ]

    def test_path_csv_needs_lh(self, game22_path, tmp_path, capsys):
        out = tmp_path / "path.csv"
        args = ["solve", game22_path, "--method", "support", "--path-csv", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "--path-csv needs --method lh" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--method", "support", "--missing-label", "99"], "--missing-label needs --method lh"),
            (["--method", "support", "--step-cap", "0"], "--step-cap needs --method lh"),
            (["--method", "lh", "--seed", "5"], "--seed needs --method support"),
            (["--seed", "5"], "--seed needs --method support"),
        ],
    )
    def test_options_of_the_other_method_rejected(self, game22_path, tmp_path, capsys, options, message):
        # rejected before the game is loaded: a missing file gives the same error
        for path in (game22_path, str(tmp_path / "absent.bgame")):
            assert main(["solve", path, *options]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""

    def test_step_cap_applies_to_lh(self, game22_path, capsys):
        # the worked example's label-1 path is 8 pivots long
        assert main(["solve", game22_path, "--method", "lh", "--step-cap", "8"]) == 0
        assert "path_length 8" in capsys.readouterr().out.splitlines()
        assert main(["solve", game22_path, "--step-cap", "7"]) == 4
        assert "step cap of 7" in capsys.readouterr().err

    def test_uvg_input(self, tmp_path, capsys):
        out = tmp_path / "tm.uvg"
        main(["gen", "triple-morris", "--m", "2", "--out", str(out)])
        assert main(["solve", str(out), "--method", "lh"]) == 0

    def test_missing_label_zero_is_out_of_range(self, game22_path, capsys):
        assert main(["solve", game22_path, "--missing-label", "0"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_shared_parser_keeps_no_state(self, game22_path, capsys):
        # main parses with one parser per process: options and errors of
        # earlier calls must not reach a later one
        assert main(["solve", game22_path]) == 0
        first = capsys.readouterr().out
        assert "path_length 8" in first.splitlines()
        assert main(["solve", game22_path, "--method", "support", "--seed", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("guesses ")
        with pytest.raises(SystemExit) as exc:
            main(["solve", game22_path, "--method", "simplex"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["solve", game22_path]) == 0
        assert capsys.readouterr().out == first
        assert build_parser() is build_parser()

    def test_support_pair_budget_exit_code(self, tmp_path, capsys):
        out = tmp_path / "tm8.uvg"
        main(["gen", "triple-morris", "--m", "8", "--out", str(out)])
        assert main(["solve", str(out), "--method", "support"]) == 4
        assert "budget" in capsys.readouterr().err

    def test_support_method_without_an_equal_size_equilibrium(self, tmp_path, capsys):
        # every equilibrium of this game has supports of unequal size, so only
        # the Lemke-Howson walk finds one
        path = tmp_path / "g.bgame"
        path.write_text(write_bgame(BimatrixGame.from_rows([[2, 0, 1], [0, 1, 1], [1, 1, 0]], [[0, 2, 1], [2, 1, 0], [0, 1, 2]])))
        assert main(["solve", str(path), "--method", "support"]) == 3
        assert capsys.readouterr().err == "solver error: no equilibrium on any equal-size support pair\n"
        assert main(["solve", str(path), "--method", "lh"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0 1/2 1/2 ; 0 1 0"

    def test_feasible_bases_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # gen random checks nondegeneracy on the vertex tables, which walk
        # every feasible basis of P and Q
        monkeypatch.setattr(polytope, "MAX_BASES", 2)
        out = tmp_path / "r.bgame"
        assert main(["gen", "random", "--m", "3", "--n", "3", "--out", str(out)]) == 4
        assert "more than 2 feasible bases" in capsys.readouterr().err
        assert not out.exists()


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


    @pytest.mark.parametrize("profile", ["0x=1 ; 1 0", "1/2 1/2 ; 1y=0", "1/2 x=1/2 ; 1 0", "y=1 0 ; x=1 0"])
    def test_prefix_only_opens_its_side(self, tmp_path, capsys, profile):
        path = tmp_path / "g.bgame"
        path.write_text("2 2\n1 0\n0 1\n\n1 0\n0 1\n")
        assert main(["verify", str(path), "--profile", profile]) == 2
        assert main(["verify", str(path), "--profile", " x= 1 0 ;  y=1 0"]) == 0


class TestBench:
    def test_empty_m_range_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "morris", "--m", "6..4", "--out", str(out)]) == 2
        assert "empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["morris", "--m", "6..4"],
            ["morris", "--m", "4", "--step-cap", "-1"],
            ["morris"],
            ["morris", "--m", "x"],
            ["morris", "--m", "4", "--jobs", "0"],
            ["permutation", "--n", "0"],
            ["permutation", "--n", "-3"],
            ["permutation", "--n", "-3", "--jobs", "2"],
            ["permutation", "--n", "4", "--seeds", "0"],
            ["morris", "--m", "3..6"],
            ["morris", "--m", "4..7"],
        ],
    )
    def test_rejected_run_leaves_out_alone(self, tmp_path, capsys, args):
        out = tmp_path / "bench.csv"
        assert exit_code(["bench", *args, "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()
        main(["bench", "morris", "--m", "4", "--out", str(out)])
        before = out.read_bytes()
        assert exit_code(["bench", *args, "--out", str(out)]) == 2
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "args,message",
        [
            (["permutation", "--n", "3", "--m", "4"], "--m needs family morris"),
            (["permutation", "--n", "3", "--solver", "lh"], "--solver needs family morris"),
            (["permutation", "--n", "3", "--labels", "all"], "--labels needs family morris"),
            (["morris", "--m", "4", "--n", "3"], "--n needs family permutation"),
            (["morris", "--m", "4", "--exhaustive"], "--exhaustive is no bench option"),
            (["triple-morris", "--m", "2", "--solver", "support", "--labels", "1"], "--labels needs --solver"),
            (["morris", "--m", "4", "--seeds", "3"], "--seeds needs --solver support"),
            (["permutation", "--n", "3", "--exhaustive"], "--exhaustive is no bench option"),
            (["permutation", "--n", "3", "--step-cap", "5"], "--step-cap needs --solver combinatorial"),
            (["morris", "--m", "4", "--solver", "support", "--step-cap", "5"], "--step-cap needs --solver"),
        ],
    )
    def test_unread_option_refused(self, tmp_path, capsys, args, message):
        out = tmp_path / "bench.csv"
        assert exit_code(["bench", *args, "--out", str(out)]) == 2
        assert states_refusal(capsys.readouterr().err, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "step,dropped_label\n1,2\n",
            "\n",
            ",".join(cli.BENCH_HEADER[:-1]) + "\r\n",
            ",".join(cli.BENCH_HEADER) + ",extra\r\n",
            "instance m n solver missing_label seed path_length guesses equilibria wall_time truncated\n",
        ],
        ids=["other-csv", "blank-line", "column-missing", "column-added", "space-separated"],
    )
    @pytest.mark.parametrize(
        "family", [["morris", "--m", "4..4"], ["permutation", "--n", "2", "--seeds", "1"]], ids=["morris", "permutation"]
    )
    def test_out_with_another_header_left_alone(self, tmp_path, capsys, text, family):
        out = tmp_path / "other.csv"
        out.write_bytes(text.encode())
        assert main(["bench", *family, "--out", str(out)]) == 2
        assert "does not start with the bench CSV header" in capsys.readouterr().err
        assert out.read_bytes() == text.encode()

    def test_out_empty_missing_or_ours_takes_rows(self, tmp_path):
        empty, missing = tmp_path / "empty.csv", tmp_path / "missing.csv"
        empty.touch()
        for out in (empty, missing, missing):
            assert main(["bench", "morris", "--m", "4..4", "--out", str(out)]) == 0
        row = ["morris-m4", "4", "4", "combinatorial-lemke", "1", "", "6", "", ""]
        before_wall_time = lambda p: [r[:9] for r in csv.reader(p.open())]
        assert before_wall_time(empty) == [cli.BENCH_HEADER[:9], row]
        assert before_wall_time(missing) == [cli.BENCH_HEADER[:9], row, row]

    def test_permutation_without_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "perm.csv"
        assert exit_code(["bench", "permutation", "--out", str(out)]) == 2
        assert "the following arguments are required: --n" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_seeds_rejected(self, tmp_path, capsys):
        out = tmp_path / "perm.csv"
        assert main(["bench", "permutation", "--n", "4", "--seeds", "0", "--out", str(out)]) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

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

    def test_seeds_read_by_support(self, tmp_path):
        out = tmp_path / "support.csv"
        assert main(["bench", "morris", "--m", "4", "--solver", "support", "--seeds", "3", "--out", str(out)]) == 0
        assert len(list(csv.DictReader(out.open()))) == 3

    def test_support_wall_time_is_the_search_time(self, tmp_path):
        out = tmp_path / "support.csv"
        start = time.perf_counter()
        main(["bench", "triple-morris", "--m", "4", "--solver", "support", "--seeds", "3", "--out", str(out)])
        elapsed = time.perf_counter() - start
        times = [float(row["wall_time"]) for row in csv.DictReader(out.open())]
        assert len(times) == 3
        assert min(times) >= 0 and sum(times) <= elapsed

    def test_wall_time_leaves_out_building_the_instance(self, tmp_path, monkeypatch):
        # each function that makes a task's instance sleeps first: permutation_game,
        # and the triple-Morris entries of the table, which holds its own references
        def slow(build):
            def built(*args):
                time.sleep(0.2)
                return build(*args)
            return built

        game, polytope = cli.UNIT_VECTOR_FAMILIES["triple-morris"]
        monkeypatch.setitem(cli.UNIT_VECTOR_FAMILIES, "triple-morris", (slow(game), slow(polytope)))
        monkeypatch.setattr(cli, "permutation_game", slow(cli.permutation_game))
        out = tmp_path / "bench.csv"
        for run in (
            ["triple-morris", "--m", "2", "--solver", "lh"],
            ["triple-morris", "--m", "2", "--solver", "combinatorial"],
            ["triple-morris", "--m", "2", "--solver", "support", "--seeds", "1"],
            ["permutation", "--n", "2", "--seeds", "1"],
        ):
            assert main(["bench", *run, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["solver"] for row in rows] == ["lh", "combinatorial-lemke", "support", "support"]
        assert all(float(row["wall_time"]) < 0.2 for row in rows)

    def test_lh_solver_mode(self, tmp_path):
        out = tmp_path / "lh.csv"
        main(
            ["bench", "triple-morris", "--m", "2..4", "--solver", "lh",
             "--labels", "1", "--out", str(out)]
        )
        rows = list(csv.DictReader(out.open()))
        # product-polytope walks alternate sides: twice the one-polytope length
        assert [r["path_length"] for r in rows] == ["4", "12"]

    def test_step_cap_marks_truncated_and_skips_ratio(self, tmp_path, capsys):
        out = tmp_path / "capped.csv"
        main(["bench", "morris", "--m", "4..8", "--labels", "1", "--step-cap", "20", "--out", str(out)])
        printed = capsys.readouterr().out
        rows = list(csv.DictReader(out.open()))
        assert [r["truncated"] for r in rows] == ["false", "false", "true"]
        assert "growth m=8:" not in printed
        assert "growth m=6:" in printed

    @pytest.mark.parametrize(
        "run, metrics, capped",
        [
            (["morris", "--m", "4..8", "--labels", "1", "--step-cap", "20"], {"missing_label", "path_length"}, True),
            (["triple-morris", "--m", "2..4", "--solver", "lh"], {"missing_label", "path_length"}, False),
            (["triple-morris", "--m", "4", "--solver", "support", "--seeds", "2"], {"seed", "guesses"}, False),
            (["permutation", "--n", "4", "--seeds", "2"], {"seed", "guesses"}, False),
        ],
    )
    def test_cell_formats(self, tmp_path, run, metrics, capped):
        # wall_time has six decimals, truncated is true or false, and a
        # metric a family does not measure is the empty cell
        out = tmp_path / "bench.csv"
        assert main(["bench", *run, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows and all(re.fullmatch(r"[0-9]+\.[0-9]{6}", r["wall_time"]) for r in rows)
        assert {r["truncated"] for r in rows} <= {"true", "false"}
        assert any(r["truncated"] == "true" for r in rows) == capped
        always = {"instance", "m", "n", "solver", "wall_time", "truncated"}
        assert all({name for name, cell in r.items() if cell} == always | metrics for r in rows)


def readme_options(command: str, family: str) -> set[str]:
    """The options in the row of README's ``| command | family | options |``
    table that lists ``family`` under ``command``; exactly one row must."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    found = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] == f"`{command}`" and f"`{family}`" in cells[1].split(", "):
            found.append(set(re.findall(r"--[a-z-]+", cells[2])))
    assert len(found) == 1, f"{len(found)} README rows list {command} {family}"
    return found[0]


@pytest.mark.parametrize(
    "command, family, runs",
    [
        ("gen", "morris", [["--m", "4", "--shuffle-columns", "--seed", "5"]]),
        ("gen", "triple-morris", [["--m", "4", "--shuffle-columns", "--seed", "5"]]),
        ("gen", "permutation", [["--n", "3", "--pi", "2 3 1"], ["--n", "3", "--seed", "2"]]),
        ("gen", "random", [["--m", "3", "--n", "2", "--seed", "1", "--no-filter"]]),
        ("bench", "morris", [
            ["--m", "4", "--solver", "lh", "--labels", "all", "--step-cap", "99", "--jobs", "1"],
            ["--m", "2..4", "--solver", "support", "--seeds", "2"],
        ]),
        ("bench", "triple-morris", [
            ["--m", "4", "--solver", "combinatorial", "--labels", "half", "--step-cap", "99", "--jobs", "1"],
            ["--m", "2..4", "--solver", "support", "--seeds", "2"],
        ]),
        ("bench", "permutation", [["--n", "3", "--seeds", "2", "--jobs", "1"]]),
    ],
)
def test_each_family_runs_with_every_option_it_lists(tmp_path, capsys, command, family, runs):
    # a code path that read an option its family's namespace lacks would
    # escape main as an AttributeError
    assert exit_code([command, family, "-h"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert listed == {word for run in runs for word in run if word.startswith("--")} | {"--out"}
    assert listed == readme_options(command, family)
    for k, run in enumerate(runs):
        out = tmp_path / f"run{k}.out"
        assert main([command, family, *run, "--out", str(out)]) == 0
        assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "permutation", "--n", "3", "--seed", "2", "--out", "{out}"],  # not --seeds
        ["bench", "morris", "--m", "4", "--step", "5", "--out", "{out}"],
        ["bench", "morris", "--m", "4", "--ou", "{out}"],
        ["gen", "random", "--m", "2", "--n", "2", "--no", "--out", "{out}"],
        ["gen", "morris", "--m", "4", "--shuffle", "--out", "{out}"],
        ["solve", "{game}", "--path", "{out}"],
        ["solve", "{game}", "--step", "5", "--path-csv", "{out}"],
    ],
)
def test_options_are_spelled_in_full(tmp_path, capsys, game22_path, argv):
    # argparse would read a prefix as the option it starts, and run
    out = tmp_path / "out.csv"
    argv = [word.format(out=out, game=game22_path) for word in argv]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert re.search(r"error: (unrecognized arguments|the following arguments are required): --", err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,option",
    [
        (["gen", "morris", "--m", "1_0", "--out", "{out}"], "--m"),
        (["gen", "random", "--m", "2", "--n", "+2", "--out", "{out}"], "--n"),
        (["gen", "random", "--m", "2", "--n", "2", "--seed", "0x1", "--out", "{out}"], "--seed"),
        (["gen", "permutation", "--n", "٣", "--out", "{out}"], "--n"),
        (["bench", "morris", "--m", "٤..6", "--out", "{out}"], "--m"),
        (["bench", "morris", "--m", "4..", "--out", "{out}"], "--m"),
        (["bench", "morris", "--m", " 4", "--out", "{out}"], "--m"),
        (["bench", "triple-morris", "--m", "2", "--solver", "support", "--seeds", "٣", "--out", "{out}"], "--seeds"),
        (["bench", "permutation", "--n", "3", "--jobs", "1.0", "--out", "{out}"], "--jobs"),
        (["solve", "{game}", "--missing-label", "１", "--path-csv", "{out}"], "--missing-label"),
        (["solve", "{game}", "--step-cap", "1e3", "--path-csv", "{out}"], "--step-cap"),
        (["gen", "morris", "--m", "1" * 4301, "--out", "{out}"], "--m"),
        (["gen", "permutation", "--pi", "+1 +2 +3", "--out", "{out}"], "--pi"),
        (["gen", "permutation", "--pi", "\u0661 2 3", "--out", "{out}"], "--pi"),
    ],
)
def test_integer_options_read_the_integer_grammar(tmp_path, capsys, game22_path, argv, option):
    # every integer option reads ASCII "-?[0-9]+", as game files do: int()
    # alone would read "1_0" as 10 and non-ASCII digits as their values, and
    # past its digit limit it raises what argparse reports as its own error
    out = tmp_path / "out.csv"
    argv = [word.format(out=out, game=game22_path) for word in argv]
    assert exit_code(argv) == 2
    assert f"error: argument {option}: invalid integer" in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


@st.composite
def mutated_game_files(draw):
    """``(suffix, text)``: a valid ``.bgame`` or ``.uvg`` file of a game of at
    most 4 x 4 with one slice of at most two characters replaced by at most
    two others, or one line dropped, moved or repeated."""
    suffix = draw(st.sampled_from([".bgame", ".uvg"]))
    text = write_bgame(draw(bimatrix_games())) if suffix == ".bgame" else write_uvg(draw(unit_vector_games(4)))
    if draw(st.booleans()):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(start + 2, len(text))))
        return suffix, text[:start] + draw(st.text("0123456789 -/\n+._eEx\u0662", max_size=2)) + text[stop:]
    lines = text.splitlines(keepends=True)
    k, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines)))
    line = lines[k] if draw(st.booleans()) else lines.pop(k)
    if draw(st.booleans()):
        lines.insert(min(j, len(lines)), line)
    return suffix, "".join(lines)


class Stalled(Exception):
    """Raised by ``wall_clock_bound``; main maps no such exception to an exit
    code, so it reaches the test."""


@contextmanager
def wall_clock_bound(seconds: int):
    """Raise Stalled in the block once ``seconds`` of wall-clock time pass."""

    def stalled(signum, frame):
        raise Stalled(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_wall_clock_bound_stops_a_stall():
    with pytest.raises(Stalled):
        with wall_clock_bound(1):
            time.sleep(5)


@settings(max_examples=150, deadline=None)
@given(mutated_game_files())
def test_mutated_file_exits_with_a_documented_code(mutated):
    # a broken file is refused, a still valid one solved or failed with a
    # code; nothing escapes main as an exception, and no solve of a game of
    # at most 4 x 4 (a few ms) comes near the bound, so a stall fails here
    # instead of hanging the suite
    suffix, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"g{suffix}"
        path.write_text(text, encoding="utf-8")
        for method in ("lh", "support"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), wall_clock_bound(30):
                assert main(["solve", str(path), "--method", method]) in (0, 2, 3, 4)


@pytest.mark.parametrize("method", ["lh", "support"])
@pytest.mark.parametrize(
    "family, name",
    [
        (["morris", "--m", "4"], "g.uvg"),
        (["triple-morris", "--m", "4", "--shuffle-columns"], "g.uvg"),
        (["permutation", "--n", "4", "--seed", "3"], "g.bgame"),
        (["random", "--m", "3", "--n", "4", "--seed", "2"], "g.bgame"),
    ],
)
def test_generated_game_solution_verifies(tmp_path, capsys, family, name, method):
    path = str(tmp_path / name)
    assert main(["gen", *family, "--out", path]) == 0
    capsys.readouterr()
    assert main(["solve", path, "--method", method]) == 0
    profile = capsys.readouterr().out.splitlines()[0]
    assert main(["verify", path, "--profile", profile]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "true"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the documented exit codes, end to end through the console entry point
        src = str(Path(galelemke.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}  # the child finds the package where this process did
        tm8 = tmp_path / "tm8.uvg"
        for argv, code in [
            (["gen", "triple-morris", "--m", "8", "--out", str(tm8)], 0),
            (["gen", "morris", "--m", "4", "--n", "3"], 2),
            (["solve", str(tmp_path / "absent.bgame")], 3),
            (["solve", str(tm8), "--method", "support"], 4),
        ]:
            result = subprocess.run(
                [sys.executable, "-m", "galelemke.cli", *argv], capture_output=True, text=True, env=env
            )
            assert result.returncode == code, result.stderr
        assert tm8.exists()

    @pytest.mark.parametrize("jobs, cpus, workers", [(1000, 3, 3), (2, 3, 2), (4, None, None)])
    def test_bench_pool_has_at_most_one_worker_per_cpu(self, tmp_path, monkeypatch, jobs, cpus, workers):
        # a recording stand-in for the pool: no process starts
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert main(["bench", "morris", "--m", "4..6", "--labels", "all", "--out", str(serial)]) == 0
        assert pools == []
        argv = ["bench", "morris", "--m", "4..6", "--labels", "all", "--jobs", str(jobs), "--out", str(pooled)]
        assert main(argv) == 0
        assert pools == ([] if workers is None else [workers])
        strip = lambda p: [r[:9] + r[10:] for r in csv.reader(p.open())]
        assert strip(serial) == strip(pooled)

    def test_parallel_bench_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["bench", "morris", "--m", "4..8", "--labels", "all", "--out", str(serial)])
        main(["bench", "morris", "--m", "4..8", "--labels", "all", "--jobs", "2", "--out", str(parallel)])
        strip = lambda p: [r[:9] + r[10:] for r in csv.reader(p.open())]
        assert strip(serial) == strip(parallel)

    def test_parallel_permutation_bench_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        main(["bench", "permutation", "--n", "4", "--seeds", "5", "--out", str(serial)])
        main(["bench", "permutation", "--n", "4", "--seeds", "5", "--jobs", "2", "--out", str(parallel)])
        strip = lambda p: [r[:9] + r[10:] for r in csv.reader(p.open())]
        assert strip(serial) == strip(parallel)


def test_gale_text_convention():
    # figure convention for strings: ones as '1', zeros as dots
    assert str(GaleString.from_text("1100")) == "11.."
    assert [str(s) for s in enumerate_gale_vertices(2, 4)][-1] == "11.."
