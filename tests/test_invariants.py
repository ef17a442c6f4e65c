"""Step-cap semantics shared by every walk, and invariant checks that raise
typed errors on every call (also under ``python -O``)."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import galelemke
from galelemke import (
    AllColumnSubsets,
    MixedProfile,
    combinatorial_lemke,
    lemke_path_length,
    lemke_path_on_unit_vector_game,
    lh_solve,
    randomized_support_search,
    triple_morris_game,
    triple_morris_polytope,
)
from galelemke import support
from galelemke.cli import main
from galelemke.errors import GaleLemkeError, InvariantError, StepCapExceededError
from galelemke.generators import random_game
from galelemke.lemke_howson import _build_tableaux, _Tableau, lh_steps

ENTRY_POINTS = {
    "combinatorial_lemke": lambda cap: combinatorial_lemke(
        triple_morris_polytope(4), 1, step_cap=cap
    ).path_length,
    "lemke_path_length": lambda cap: lemke_path_length(
        triple_morris_polytope(4), 1, step_cap=cap
    )[0],
    "lh_solve": lambda cap: lh_solve(
        triple_morris_game(4).to_bimatrix(), 1, step_cap=cap
    ).path_length,
    "lemke_path_on_unit_vector_game": lambda cap: lemke_path_on_unit_vector_game(
        triple_morris_game(4), 1, step_cap=cap
    ).path_length,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_step_cap_allows_exactly_cap_pivots(name):
    walk = ENTRY_POINTS[name]
    length = walk(None)
    assert walk(length) == length
    with pytest.raises(StepCapExceededError) as info:
        walk(length - 1)
    assert info.value.steps_taken == length - 1
    assert str(info.value) == f"pivoting exceeded the step cap of {length - 1} pivots"


def test_negative_step_cap_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        lemke_path_length(triple_morris_polytope(4), 1, step_cap=-1)


def _not_an_equilibrium(game, s1, s2):
    """Both players on their first pure strategy: not an equilibrium of the
    triple Morris game, whose equilibria give the row player full support."""
    return MixedProfile.of([1] + [0] * (game.m - 1), [1] + [0] * (game.n - 1))


def test_support_search_rejects_a_non_equilibrium(monkeypatch):
    monkeypatch.setattr(support, "solve_support", _not_an_equilibrium)
    game = triple_morris_game(2).to_bimatrix()
    with pytest.raises(GaleLemkeError):
        randomized_support_search(game, AllColumnSubsets(game), seed=0)


def test_cli_maps_a_broken_invariant_to_solver_exit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(support, "solve_support", _not_an_equilibrium)
    code = main(
        ["bench", "triple-morris", "--m", "2", "--solver", "support", "--seeds", "1",
         "--out", str(tmp_path / "bench.csv")]
    )
    assert code == 3
    assert "label cover" in capsys.readouterr().err


def test_pivot_off_the_ratio_test_raises():
    # entering variable 0 has ratios 1 (row 0) and 1/2 (row 1); pivoting on
    # row 0 drives the right-hand side of row 1 negative
    rows = [[Fraction(1), Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(2), Fraction(0), Fraction(1), Fraction(1)]]
    tableau = _Tableau(rows, [1, 2], (1, 2))
    with pytest.raises(InvariantError):
        tableau.pivot(0, 0)


def _check_common_denominator(tab, entering):
    det = tab.det
    assert det > 0
    # the pivot row is kept, so its entry in the entering column is the
    # last pivot, which is the new common denominator
    assert tab.rows[tab.basis.index(entering)][entering] == det
    for r, var in enumerate(tab.basis):
        assert [row[var] for row in tab.rows] == [det if k == r else 0 for k in range(len(tab.rows))]


@pytest.mark.parametrize(
    "game, lexicographic",
    [
        (triple_morris_game(6).to_bimatrix(), True),
        (random_game(4, 4, 3, payoff_range=(0, 2), filter_degenerate=False), True),
        (random_game(4, 4, 3, payoff_range=(0, 2), filter_degenerate=False), False),
    ],
    ids=["triple-morris-6", "degenerate-lex", "degenerate-nolex"],
)
def test_integer_pivoting_keeps_one_positive_denominator(game, lexicographic):
    for label in range(1, game.m + game.n + 1):
        tableaux = _build_tableaux(game)
        for tab in tableaux:
            assert tab.det == 1
        pivots = 0
        for step in lh_steps(tableaux, label, lexicographic):
            tab = tableaux[0] if step.system == "P" else tableaux[1]
            _check_common_denominator(tab, step.dropped - 1)
            pivots += 1
        assert pivots > 0


def test_no_assert_in_package_sources():
    offenders = []
    for source in sorted(Path(galelemke.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{source.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{source.name}:{node.lineno} raise AssertionError")
    assert offenders == []


def test_no_environment_reads_in_package_sources():
    # every setting is an argument or a flag, never a hidden knob
    knobs = {"environ", "environb", "getenv"}
    offenders = []
    for source in sorted(Path(galelemke.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in knobs:
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    offenders.append(f"{source.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = knobs & {alias.name for alias in node.names}
                offenders += [f"{source.name}:{node.lineno} from os import {n}" for n in sorted(names)]
    assert offenders == []
