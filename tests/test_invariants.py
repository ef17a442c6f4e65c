"""Step-cap semantics shared by every walk, and invariant checks that raise
typed errors on every call (also under ``python -O``)."""

import ast
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from galelemke.linalg import bareiss_solve

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
    monkeypatch.setattr(support, "_solve_support", _not_an_equilibrium)
    game = triple_morris_game(2).to_bimatrix()
    with pytest.raises(GaleLemkeError):
        randomized_support_search(game, AllColumnSubsets(game), seed=0)


def test_cli_maps_a_broken_invariant_to_solver_exit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(support, "_solve_support", _not_an_equilibrium)
    code = main(
        ["bench", "triple-morris", "--m", "2", "--solver", "support", "--seeds", "1",
         "--out", str(tmp_path / "bench.csv")]
    )
    assert code == 3
    assert "label cover" in capsys.readouterr().err


def test_pivot_off_the_ratio_test_raises():
    # entering variable 0 has ratios 1 (row 0) and 1/2 (row 1); pivoting on
    # row 0 drives the right-hand side of row 1 negative.  The full rows
    # are [1, 1, 0 | 1] and [2, 0, 1 | 1]; the compact dictionary keeps
    # the cobasic column 0 and the right-hand side
    tableau = _Tableau([[1, 1], [2, 1]], [1, 2], [0])
    with pytest.raises(InvariantError):
        tableau.pivot(0, 0)


def test_entering_a_basic_variable_raises():
    # variable 1 is basic in row 0, so it has no column to enter on
    tableau = _Tableau([[1, 1], [2, 1]], [1, 2], [0])
    with pytest.raises(InvariantError, match="already basic"):
        tableau.choose_leaving(1)
    with pytest.raises(InvariantError, match="already basic"):
        tableau.pivot(1, 0)


def test_entering_column_without_positive_entry_raises():
    # a normalized game gives every entering column a positive entry, so a
    # column with none (here 0 and -1) is a broken invariant
    tableau = _Tableau([[0, 1], [-1, 2]], [1, 2], [0])
    with pytest.raises(InvariantError):
        tableau.choose_leaving(0)


def _full_tableau(tab):
    """The full tableau a compact dictionary stands for: the column of
    every variable, then the right-hand side."""
    nvars = len(tab.basis) + len(tab.cobasis)
    full = []
    for var, row in zip(tab.basis, tab.rows):
        entries = [tab.det if v == var else 0 for v in range(nvars)] + [row[-1]]
        for c, v in enumerate(tab.cobasis):
            entries[v] = row[c]
        full.append(entries)
    return full


def _check_common_denominator(tab, entering, start):
    det = tab.det
    assert det > 0
    full = _full_tableau(tab)
    # the pivot row is kept, so its entry in the entering column is the
    # last pivot, which is the new common denominator
    assert full[tab.basis.index(entering)][entering] == det
    for r, var in enumerate(tab.basis):
        assert [row[var] for row in full] == [det if k == r else 0 for k in range(len(full))]
    # the whole tableau is det * inverse(basis) * start, where the basis
    # matrix holds the start's columns of the basic variables, and det is
    # the absolute determinant of that matrix
    basis_matrix = [[row[var] for var in tab.basis] for row in start]
    columns = list(zip(*full))
    for b_row, start_row in zip(basis_matrix, start):
        assert [sum(map(mul, b_row, col)) for col in columns] == [det * v for v in start_row]
    assert bareiss_solve([row + [0] for row in basis_matrix])[1] == det


@pytest.mark.parametrize(
    "game",
    [
        triple_morris_game(6).to_bimatrix(),
        random_game(4, 4, 3, payoff_range=(0, 2), filter_degenerate=False),
    ],
    ids=["triple-morris-6", "degenerate-lex"],
)
def test_integer_pivoting_keeps_one_positive_denominator(game):
    for label in range(1, game.m + game.n + 1):
        tableaux = _build_tableaux(game)
        for tab in tableaux:
            assert tab.det == 1
        starts = [_full_tableau(tab) for tab in tableaux]
        pivots = 0
        for step in lh_steps(tableaux, label):
            side = 0 if step.system == "P" else 1
            _check_common_denominator(tableaux[side], step.dropped - 1, starts[side])
            pivots += 1
        assert pivots > 0


walk_games = st.one_of(
    st.builds(random_game, st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6)),
    st.builds(
        lambda seed: random_game(3, 3, seed, payoff_range=(0, 2), filter_degenerate=False),
        st.integers(0, 10**6),
    ),
)


@settings(max_examples=60, deadline=None)
@given(walk_games)
def test_walk_label_sets_are_the_cobases(game):
    # the product walk keeps its own label sets: they must be the ones the
    # tableaux' cobases carry, and a pivot of one side must leave the other
    # side's set object as it was
    for label in range(1, game.m + game.n + 1):
        tableaux = _build_tableaux(game)
        before = None
        for step in lh_steps(tableaux, label):
            assert step.vertex == tuple(frozenset(v + 1 for v in tab.cobasis) for tab in tableaux)
            if before is not None:
                kept = 1 if step.system == "P" else 0
                assert step.system != before.system
                assert step.vertex[kept] is before.vertex[kept]
            before = step


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


def test_every_error_class_is_raised_and_tested():
    # an error class the package never raises, or no test names, is dead
    # weight in the public API; the root GaleLemkeError is only caught
    package = Path(galelemke.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name != "GaleLemkeError"
    }
    raised = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    tested = set()
    for source in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                tested.add(node.id)
            elif isinstance(node, ast.Attribute):
                tested.add(node.attr)
    assert sorted(classes - raised) == []
    assert sorted(classes - tested) == []
