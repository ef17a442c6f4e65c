"""The pivoting vertex enumerator against an ordered brute-force reference."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke import BimatrixGame, is_nondegenerate, polytope, random_game
from galelemke.cyclic import cyclic_geometry, to_canonical_form
from galelemke.errors import BudgetExceededError
from galelemke.game import transpose
from galelemke.linalg import bareiss_solve, scaled_to_integers
from galelemke.polytope import feasible_bases, ordered_vertices, vertex_table


@st.composite
def integer_systems(draw):
    """(dim, rows of R, positive row scales); a zero row, a repeated row or
    a multiple of a row is mixed in now and then, so degenerate systems are
    common."""
    dim = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-3, 5), min_size=dim, max_size=dim)
    rows = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    twist = draw(st.sampled_from(["none", "zero", "repeat", "proportional"]))
    if twist == "zero":
        rows[-1] = [0] * dim
    elif twist == "repeat" and nrows > 1:
        rows[-1] = list(rows[0])
    elif twist == "proportional" and nrows > 1:
        factor = draw(st.sampled_from([2, 3]))
        rows[-1] = [factor * v for v in rows[0]]
    scales = draw(st.lists(st.integers(1, 3), min_size=nrows, max_size=nrows))
    return dim, rows, scales


def brute_force_vertices(int_rows, dim):
    """Every square subsystem of binding constraints, solved exactly: for
    k = 0..dim, every k free coordinates and every k rows.  Yields each
    feasible solution the first time it is met, so the order is by size,
    then free coordinates, then rows."""
    nrows = len(int_rows)
    seen = set()
    for k in range(dim + 1):
        for free in itertools.combinations(range(dim), k):
            columns = [[row[c] for c in free] + [b] for b, row in int_rows]
            for tight in itertools.combinations(range(nrows), k):
                solved = bareiss_solve([list(columns[r]) for r in tight])
                if solved is None:
                    continue
                num, den = solved
                if any(v < 0 for v in num):
                    continue
                scaled = [0] * dim
                for c, v in zip(free, num):
                    scaled[c] = v
                g = gcd(den, *num)
                key = (tuple(v // g for v in scaled), den // g)
                if key in seen:
                    continue
                values = [sum(c * z for c, z in zip(row, scaled)) for _, row in int_rows]
                if any(v > b * den for v, (b, _) in zip(values, int_rows)):
                    continue
                seen.add(key)
                yield (
                    tuple(Fraction(v, den) for v in scaled),
                    frozenset(i + 1 for i in range(dim) if scaled[i] == 0)
                    | frozenset(dim + j + 1 for j, (v, (b, _)) in enumerate(zip(values, int_rows)) if v == b * den),
                )


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example((2, [[1, 0], [0, 0]], [1, 1]))  # zero row: never binds
@example((2, [[1, 1], [1, 1], [2, 2]], [1, 3, 2]))  # repeated rows
@example((2, [[1, 0], [0, 1], [1, 1]], [1, 1, 1]))  # (1, 0) and (0, 1) bind three constraints
@example((3, [[-1, -2, -3]], [2]))  # unbounded: only the origin
@example((2, [[1, 2], [2, 4], [3, 1]], [1, 2, 1]))  # proportional rows bind together
@example((2, [[5, -2], [-3, 4], [5, -2], [1, 3]], [3, 1, 3, 3]))  # one support, rows (1, 3, 4) then (2, 4); row 3 repeats row 1
def test_matches_brute_force_reference(system):
    dim, rows, scales = system
    int_rows = [(s, tuple(s * v for v in row)) for s, row in zip(scales, rows)]
    assert list(ordered_vertices(vertex_table(int_rows, dim), dim)) == list(brute_force_vertices(int_rows, dim))


def test_order_matches_brute_force_on_games_and_cyclic_polytopes():
    systems = []
    for seed in range(6):
        for k in (4, 5):
            a_rows, b_cols = random_game(k, k, seed).integer_payoffs
            systems += [(b_cols, k), (a_rows, k)]
    for m, f in ((4, 8), (6, 12)):
        b = to_canonical_form(cyclic_geometry(m, f)).b
        systems.append(([scaled_to_integers(col) for col in transpose(b)], m))
    for int_rows, dim in systems:
        assert list(ordered_vertices(vertex_table(int_rows, dim), dim)) == list(brute_force_vertices(int_rows, dim))


def test_is_nondegenerate_matches_brute_force_label_counts():
    # the degenerate sample: 2-4 x 2-4 games with entries 0..2
    rng = random.Random(3)
    degenerate = 0
    for _ in range(400):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        b = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        game = BimatrixGame.from_rows(a, b)
        a_rows, b_cols = game.integer_payoffs
        too_many = any(
            len(tight) > dim
            for int_rows, dim in ((b_cols, m), (a_rows, n))
            for _, tight in brute_force_vertices(int_rows, dim)
        )
        assert is_nondegenerate(game) == (not too_many)
        degenerate += too_many
    assert degenerate == 380


def brute_force_bases(int_rows, dim):
    """Every feasible basis of the slack dictionary ``integers . z + s =
    scale``, by trying each R-subset of the dim + R variables: the subset
    is a basis if its columns are nonsingular, and feasible if the basic
    values are >= 0.  Maps each basis to its basic values."""
    nrows = len(int_rows)
    columns = [[row[v] for _, row in int_rows] for v in range(dim)]
    columns += [[int(i == j) for i in range(nrows)] for j in range(nrows)]
    bases = {}
    for basis in itertools.combinations(range(dim + nrows), nrows):
        aug = [[columns[v][i] for v in basis] + [int_rows[i][0]] for i in range(nrows)]
        solved = bareiss_solve(aug)
        if solved is not None and all(v >= 0 for v in solved[0]):
            bases[frozenset(basis)] = dict(zip(basis, (Fraction(v, solved[1]) for v in solved[0])))
    return bases


def assert_feasible_bases_exact(int_rows, dim):
    walked = [(frozenset(d.basis), d.basis, d.rows, d.det) for d in feasible_bases(int_rows, dim)]
    expected = brute_force_bases(int_rows, dim)
    assert len({key for key, *_ in walked}) == len(walked)
    assert {key for key, *_ in walked} == set(expected)
    for key, basis, rows, det in walked:
        assert {v: Fraction(row[-1], det) for v, row in zip(basis, rows)} == expected[key]


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example((2, [[1, 0], [0, 1], [1, 1]], [1, 1, 1]))  # three bases at (1, 0) and at (0, 1)
@example((2, [[1, 1], [1, 1], [2, 2]], [1, 3, 2]))  # repeated rows
def test_feasible_bases_are_exactly_the_feasible_bases(system):
    dim, rows, scales = system
    assert_feasible_bases_exact([(s, tuple(s * v for v in row)) for s, row in zip(scales, rows)], dim)


def test_feasible_bases_refuse_the_basis_past_the_budget(monkeypatch):
    b_cols = random_game(3, 3, 0).integer_payoffs[1]
    count = len(list(feasible_bases(b_cols, 3)))
    monkeypatch.setattr(polytope, "MAX_BASES", count)
    assert len(list(feasible_bases(b_cols, 3))) == count
    monkeypatch.setattr(polytope, "MAX_BASES", count - 1)
    walked = []
    with pytest.raises(BudgetExceededError, match=f"more than {count - 1} feasible bases"):
        walked.extend(feasible_bases(b_cols, 3))
    assert len(walked) == count - 1


def test_feasible_bases_are_exactly_the_feasible_bases_on_degenerate_games():
    rng = random.Random(16)
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        b = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        a_rows, b_cols = BimatrixGame.from_rows(a, b).integer_payoffs
        assert_feasible_bases_exact(b_cols, m)
        assert_feasible_bases_exact(a_rows, n)
