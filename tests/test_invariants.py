"""Step-cap semantics shared by every walk, and invariant checks that raise
typed errors on every call (also under ``python -O``)."""

import ast
import inspect
import tracemalloc
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
    morris_polytope,
    randomized_support_search,
    triple_morris_game,
    triple_morris_polytope,
)
from galelemke import gale, lemke_howson, paths, polytope, support
from galelemke.cli import main
from galelemke.errors import (
    DegenerateGameError,
    GaleLemkeError,
    InvariantError,
    StepCapExceededError,
)
from galelemke.game import UnitVectorGame
from galelemke.generators import random_game
from galelemke.lemke_howson import _slack_dictionaries, lh_path
from galelemke.linalg import bareiss_solve, ratio_rows
from galelemke.paths import DEFAULT_STEP_CAP
from galelemke.polytope import Dictionary, feasible_bases

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


def _count_pivots(monkeypatch, name):
    """A list that gets one entry per pivot the walk ``name`` computes."""
    computed = []
    if name in ("combinatorial_lemke", "lemke_path_length"):
        gale_step = gale._gale_step

        def counted_gale_step(f):
            step = gale_step(f)
            return lambda bits, p: computed.append(p) or step(bits, p)

        monkeypatch.setattr(gale, "_gale_step", counted_gale_step)
    else:
        enter = Dictionary.enter
        monkeypatch.setattr(Dictionary, "enter", lambda d, v: computed.append(v) or enter(d, v))
    return computed


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_walk_defaults_to_the_one_step_cap(name):
    # one integer default for all four walks, defined once in paths
    assert inspect.signature(getattr(galelemke, name)).parameters["step_cap"].default == DEFAULT_STEP_CAP
    assert lemke_howson.DEFAULT_STEP_CAP is gale.DEFAULT_STEP_CAP is paths.DEFAULT_STEP_CAP


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_step_cap_allows_exactly_cap_pivots(name, monkeypatch):
    walk = ENTRY_POINTS[name]
    length = walk(DEFAULT_STEP_CAP)
    assert walk(length) == length
    computed = _count_pivots(monkeypatch, name)
    for cap in (length - 1, 0):
        computed.clear()
        with pytest.raises(StepCapExceededError) as info:
            walk(cap)
        assert info.value.steps_taken == cap
        assert str(info.value) == f"pivoting exceeded the step cap of {cap} pivots"
        # the walk loop stops at the cap: pivot cap + 1 is never computed
        assert len(computed) == cap


def test_step_cap_is_checked_before_the_next_pivot():
    # label 1 on this game ties in P's ratio test at the first pivot: a cap
    # of 0 stops the walk before that pivot, a cap of 1 lets it raise
    u = UnitVectorGame.of(3, [1, 3, 1, 2], [[0, 1, 1, 1], [2, 1, 0, 0], [1, 0, 1, 1]])
    with pytest.raises(StepCapExceededError) as info:
        lemke_path_on_unit_vector_game(u, 1, step_cap=0)
    assert info.value.steps_taken == 0
    with pytest.raises(DegenerateGameError):
        lemke_path_on_unit_vector_game(u, 1, step_cap=1)


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


def _variable_labels(m, n):
    """Each side's label of each variable: P numbers x, then the slacks of
    B's columns; Q numbers y, then the slacks of A's rows."""
    return tuple(range(1, m + n + 1)), (*range(m + 1, m + n + 1), *range(1, m + 1))


class _LoggedDictionaries(list):
    """A walk's [P, Q] list that logs, for each dictionary put back, the side
    and both dictionaries after it."""

    def __init__(self, dicts):
        super().__init__(dicts)
        self.log = []

    def __setitem__(self, side, d):
        super().__setitem__(side, d)
        self.log.append((side, list(self)))


def _full_row_dictionaries(game):
    """The [P, Q] slack dictionaries with every row kept."""
    a_rows, b_cols = game.integer_payoffs
    return [Dictionary.slack(b_cols, game.m), Dictionary.slack(a_rows, game.n)]


def _walk(game, label, start=_slack_dictionaries):
    """``lh_path`` from the game's slack dictionaries (those ``lh_solve``
    builds, unless ``start`` builds others): the path, and for each step the
    side whose dictionary it replaced and the [P, Q] after it."""
    dicts = _LoggedDictionaries(start(game))
    path = lh_path(dicts, label, DEFAULT_STEP_CAP)
    assert len(dicts.log) == path.path_length
    return path, dicts.log


def test_pivot_off_the_ratio_test_raises(monkeypatch):
    # entering variable 0 has ratios 1 (row 0) and 1/2 (row 1); pivoting on
    # row 0 drives the right-hand side of row 1 negative.  The full rows
    # are [1, 1, 0 | 1] and [2, 0, 1 | 1]; the compact dictionary keeps
    # the cobasic column 0 and the right-hand side
    d = Dictionary([[1, 1], [2, 1]], [1, 2], [0], 1)
    assert d.leaving_row(0) == (1, False)
    monkeypatch.setattr(Dictionary, "leaving_row", lambda d, c: (0, False))
    with pytest.raises(InvariantError, match="nonnegativity"):
        d.enter(0)


@pytest.mark.parametrize("m, seed, label", [(3, 372, 2), (4, 148, 3), (4, 223, 4), (5, 19, 7), (5, 24, 10)])
def test_cycling_walk_raises_at_its_first_repeated_mask(monkeypatch, m, seed, label):
    # the games that test_golden marks as cycling when a ratio-test tie goes
    # to the first tied row; every recorded walk checks its masks, so the
    # walk stops at its first repeated basis pair instead of keeping steps
    # up to the cap (the finite cap makes a walk without the check fail, not hang)
    game = random_game(m, m, seed, payoff_range=(0, 2), filter_degenerate=False)
    lh_solve(game, label, step_cap=2000)  # the lexicographic rule ends the walk
    monkeypatch.setattr(Dictionary, "leaving_row", lambda d, c: (ratio_rows(d.rows, c)[0], False))
    with pytest.raises(InvariantError, match="revisited"):
        lh_solve(game, label, step_cap=2000)


def test_entering_a_basic_variable_raises():
    # variable 1 is basic in row 0, so it has no column to enter on
    d = Dictionary([[1, 1], [2, 1]], [1, 2], [0], 1)
    with pytest.raises(InvariantError, match="already basic"):
        d.enter(1)


def test_entering_column_without_positive_entry_raises():
    # a normalized game gives every entering column a positive entry, so a
    # column with none (here 0 and -1) is a broken invariant
    d = Dictionary([[0, 1], [-1, 2]], [1, 2], [0], 1)
    with pytest.raises(InvariantError, match="no positive"):
        d.leaving_row(0)
    with pytest.raises(InvariantError, match="no positive"):
        d.enter(0)


def _full_tableau(d):
    """The full tableau a compact dictionary stands for: the column of
    every variable, then the right-hand side, each row read through the
    dictionary's own row reader."""
    nvars = len(d.basis) + len(d.cobasis)
    full = []
    for r, var in enumerate(d.basis):
        row = d.row(r)
        entries = [d.det if v == var else 0 for v in range(nvars)] + [row[-1]]
        for c, v in enumerate(d.cobasis):
            entries[v] = row[c]
        full.append(entries)
    return full


def _check_common_denominator(d, entering, start):
    det = d.det
    assert det > 0
    full = _full_tableau(d)
    # the pivot row is kept, so its entry in the entering column is the
    # last pivot, which is the new common denominator
    assert full[d.basis.index(entering)][entering] == det
    for r, var in enumerate(d.basis):
        assert [row[var] for row in full] == [det if k == r else 0 for k in range(len(full))]
    # the whole tableau is det * inverse(basis) * start, where the basis
    # matrix holds the start's columns of the basic variables, and det is
    # the absolute determinant of that matrix
    basis_matrix = [[row[var] for var in d.basis] for row in start]
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
    labels = _variable_labels(game.m, game.n)
    for label in range(1, game.m + game.n + 1):
        dicts = _slack_dictionaries(game)
        for d in dicts:
            assert d.det == 1
        starts = [_full_tableau(d) for d in dicts]
        path, log = _walk(game, label)
        for step, (side, after) in zip(path.steps, log):
            entering = labels[side].index(step.dropped)
            _check_common_denominator(after[side], entering, starts[side])
        assert path.steps


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
    # a step's mask is the two dictionaries' cobases, the path decodes it
    # into the label sets those cobases carry, and it reads as moved the
    # side whose dictionary pivoted; the sides alternate
    labels = _variable_labels(game.m, game.n)
    nvars = game.m + game.n
    for label in range(1, nvars + 1):
        path, log = _walk(game, label)
        for step, vertex, (side, after) in zip(path.steps, path.vertices()[1:], log):
            p_cobasis, q_cobasis = (d.cobasis for d in after)
            assert step.bits == sum(1 << v for v in p_cobasis) | sum(1 << nvars + v for v in q_cobasis)
            assert vertex == tuple(
                frozenset(side_labels[v] for v in d.cobasis) for side_labels, d in zip(labels, after)
            )
        sides = path.sides()
        assert sides == ["PQ"[side] for side, _ in log]
        assert all(a != b for a, b in zip(sides, sides[1:]))
        assert lh_solve(game, label).path == path


def test_walk_from_the_endpoint_retraces_the_path():
    # lh_path starts at the cobases it is given, with either side first: on
    # a nondegenerate game, the walk for the same label from the equilibrium
    # it reached leads back to the origin through the same vertices
    games = [random_game(m, n, seed) for m, n in ((2, 3), (3, 3), (4, 3), (4, 5)) for seed in range(4)]
    for game in games:
        for label in range(1, game.m + game.n + 1):
            dicts = _slack_dictionaries(game)
            forward = lh_path(dicts, label, DEFAULT_STEP_CAP)
            back = lh_path(dicts, label, DEFAULT_STEP_CAP)
            assert back.vertices() == forward.vertices()[::-1]
            assert back.sides() == forward.sides()[::-1]
            assert back.label_sequence() == [(b, a) for a, b in reversed(forward.label_sequence())]


@pytest.mark.parametrize(
    "walk, build, bound",
    [
        (lh_solve, lambda: triple_morris_game(12).to_bimatrix(), 300),
        (combinatorial_lemke, lambda: morris_polytope(20), 160),
    ],
    ids=["lh-triple-morris-12", "gale-morris-20"],
)
def test_recorded_walk_keeps_no_vertex_per_step(walk, build, bound):
    # a recorded step is the driver's two labels and tight mask, decoded on
    # access; a record with a pair of label sets per step retained about
    # 1,600 B per step on triple Morris m = 12, label 1, and one with a
    # GaleString per step about 210 B on Morris m = 20, label 1
    instance = build()
    walk(instance, 1)  # caches the game's integer payoffs
    tracemalloc.start()
    try:
        result = walk(instance, 1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < bound * result.path_length


def test_walked_dictionaries_are_enumerated_feasible_bases():
    # one kernel for both engines: every dictionary a product walk reaches
    # is a feasible basis that the vertex enumerator visits on the same
    # side, with the same basis set, determinant and point
    games = [random_game(m, n, seed) for m, n in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5)) for seed in range(10)]
    games += [random_game(3, 3, seed, payoff_range=(0, 2), filter_degenerate=False) for seed in range(60)]
    # tall games, whose P walks keep only their coordinate rows
    games += [random_game(m, n, seed) for m, n in ((2, 4), (2, 6), (3, 6), (3, 8)) for seed in range(5)]
    games += [
        random_game(m, 3 * m, seed, payoff_range=(0, 2), filter_degenerate=False) for m in (2, 3) for seed in range(10)
    ]
    pivots = coordinate_pivots = 0
    for game in games:
        a_rows, b_cols = game.integer_payoffs
        bases = [
            {frozenset(d.basis): (d.det, d.scaled_point()) for d in feasible_bases(rows, dim)}
            for rows, dim in ((b_cols, game.m), (a_rows, game.n))
        ]
        for label in range(1, game.m + game.n + 1):
            for side, after in _walk(game, label)[1]:
                d = after[side]
                assert bases[side][frozenset(d.basis)] == (d.det, d.scaled_point())
                pivots += 1
                coordinate_pivots += d.int_rows is not None
    assert pivots > 2000
    assert coordinate_pivots > 500


def _tall_games():
    """Triple Morris at m = 4 and 6, and tall degenerate games whose P walks
    break ratio-test ties in the coordinate-row form."""
    games = [triple_morris_game(m).to_bimatrix() for m in (4, 6)]
    games += [
        random_game(m, n, seed, payoff_range=(0, 2), filter_degenerate=False)
        for m in (2, 3)
        for n in range(2 * m, 3 * m + 1)
        for seed in range(6)
    ]
    return games


def test_coordinate_rows_read_as_the_full_dictionary(monkeypatch):
    # after every pivot, each entry and right-hand side the coordinate-row
    # form reads equals that of the full-row dictionary of the same basis,
    # and every walk takes the same path to the same equilibrium
    leaving_row = Dictionary.leaving_row
    coordinate_ties = []

    def spy(d, c):
        r, tied = leaving_row(d, c)
        if tied and d.int_rows is not None:
            coordinate_ties.append(r)
        return r, tied

    monkeypatch.setattr(Dictionary, "leaving_row", spy)
    for game in _tall_games():
        assert _slack_dictionaries(game)[0].int_rows is not None
        for label in range(1, game.m + game.n + 1):
            path, log = _walk(game, label)
            full_path, full_log = _walk(game, label, _full_row_dictionaries)
            assert path == full_path
            for (side, after), (_, full_after) in zip(log, full_log):
                d, full = after[side], full_after[side]
                assert (d.basis, d.cobasis, d.det, d.rhs) == (full.basis, full.cobasis, full.det, full.rhs)
                assert [d.row(r) for r in range(len(d.basis))] == full.rows
                for c in range(len(d.cobasis)):
                    assert [d.entry(r, c) for r in range(len(d.basis))] == [row[c] for row in full.rows]
                    if d.int_rows is not None:
                        assert d.column(c) == [[row[c], row[-1]] for row in full.rows]
    assert len(coordinate_ties) > 20
    solved = [lh_solve(game, label) for game in _tall_games() for label in range(1, game.m + game.n + 1)]
    monkeypatch.setattr(Dictionary, "walk_origin", Dictionary.slack)
    assert _slack_dictionaries(_tall_games()[0])[0].int_rows is None
    assert [lh_solve(game, label) for game in _tall_games() for label in range(1, game.m + game.n + 1)] == solved


@pytest.mark.parametrize("m", [4, 6])
def test_unit_vector_walk_on_coordinate_rows_matches_full_rows(monkeypatch, m):
    u = triple_morris_game(m)
    paths = [lemke_path_on_unit_vector_game(u, label) for label in range(1, 4 * m + 1)]
    monkeypatch.setattr(Dictionary, "walk_origin", Dictionary.slack)
    assert [lemke_path_on_unit_vector_game(u, label) for label in range(1, 4 * m + 1)] == paths


def test_enumerator_keeps_every_row_on_a_tall_polytope():
    # the vertex enumerator reads every row at every basis, so the walks'
    # coordinate-row policy does not pay there: forced onto feasible_bases,
    # it made the P vertices of triple Morris 1.6-1.9x slower (9.1 -> 17.3 ms
    # at m = 4, 311 -> 512 ms at m = 6, single runs)
    m = 4
    b_cols = triple_morris_game(m).to_bimatrix().integer_payoffs[1]
    assert Dictionary.walk_origin(b_cols, m).int_rows is not None
    bases = list(feasible_bases(b_cols, m))
    assert len(bases) > 1
    for d in bases:
        assert d.int_rows is None
        assert [len(row) for row in d.rows] == [m + 1] * 3 * m


def test_tall_polytope_pivots_update_at_most_its_coordinate_rows(monkeypatch):
    # P of triple Morris m = 8 has 24 rows in 8 coordinates: a pivot on every
    # row Bareiss-updates 23 of them, one on the kept coordinate rows at most 8
    m = 8
    pivot = polytope.pivot
    updated = []
    spy = lambda rows, r, c, det: updated.append(len(rows) - 1) or pivot(rows, r, c, det)
    monkeypatch.setattr(polytope, "pivot", spy)
    result = lh_solve(triple_morris_game(m).to_bimatrix(), 1)
    assert len(updated) == result.path_length
    assert max(updated) <= m


def test_no_assert_in_package_sources():
    # python -O strips assert statements; invariants raise typed errors instead
    offenders = []
    for source in sorted(Path(galelemke.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{source.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{source.name}:{node.lineno} raise AssertionError")
    assert offenders == []


def test_no_recursive_function_in_package_sources():
    # RecursionError is no typed error: it would escape the CLI's exit codes
    offenders = []
    for source in sorted(Path(galelemke.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if isinstance(func, ast.Name) and func.id == node.name or (
                        isinstance(func, ast.Attribute)
                        and func.attr == node.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id in ("self", "cls")
                    ):
                        offenders.append(f"{source.name}:{call.lineno} {node.name}")
    assert offenders == []


def _package_imports(tree) -> set[str]:
    """The galelemke modules a parsed module imports, by their bare names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("galelemke"):
            module = node.module.split(".")
            names |= {module[1]} if len(module) > 1 else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("galelemke.")}
    return names


def test_the_walk_is_one_module():
    # the label-forced walk, its default cap and its record live in paths,
    # which knows no engine; the Gale engine and the tableau walks share
    # paths and do not import each other
    package = Path(galelemke.__file__).parent
    trees = {source.stem: ast.parse(source.read_text(encoding="utf-8")) for source in package.glob("*.py")}
    assert "lemke_howson" not in _package_imports(trees["gale"])
    assert "gale" not in _package_imports(trees["lemke_howson"])
    assert _package_imports(trees["paths"]) <= {"errors"}
    defined = []  # (module, name) for each module-level definition of the two names
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined += [(stem, name) for name in names if name in ("walk", "DEFAULT_STEP_CAP")]
    assert sorted(defined) == [("paths", "DEFAULT_STEP_CAP"), ("paths", "walk")]


def test_one_integer_grammar():
    # game files and integer options read integers by gameio.parse_integer:
    # no other module spells the grammar out with str.isdecimal
    package = Path(galelemke.__file__).parent
    calls = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        if source.stem != "gameio"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "isdecimal"
    ]
    assert calls == []


def test_the_walks_read_a_dictionary_only_through_enter():
    # the row choice, its lexicographic tie-break and the pivot checks live
    # in polytope.Dictionary: lemke_howson uses no elimination kernel and
    # knows nothing of the dictionary's layout
    tree = ast.parse(Path(lemke_howson.__file__).read_text(encoding="utf-8"))
    assert "linalg" not in _package_imports(tree)
    layout = {"basis", "det", "rows", "entry", "row", "column", "rhs", "pivoted", "leaving_row", "int_rows", "ratio_test"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(read & layout) == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: syntax a later version
    # added, such as except* (3.11), must not reach the package or its tests
    sources = [*Path(galelemke.__file__).parent.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]
    for source in sorted(sources):
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # the check does see a later version's syntax
        ast.parse("try: pass\nexcept* ValueError: pass", feature_version=(3, 10))


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
