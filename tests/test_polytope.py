"""The vertex enumerator against a brute-force reference."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke.linalg import dot, solve_square
from galelemke.polytope import vertices_nonneg_form


@st.composite
def integer_systems(draw):
    """(dim, rows of R, positive row scales); a zero row or a repeated row
    is mixed in now and then, so degenerate systems are common."""
    dim = draw(st.integers(1, 3))
    nrows = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-3, 5), min_size=dim, max_size=dim)
    rows = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    twist = draw(st.sampled_from(["none", "zero", "repeat"]))
    if twist == "zero":
        rows[-1] = [0] * dim
    elif twist == "repeat" and nrows > 1:
        rows[-1] = list(rows[0])
    scales = draw(st.lists(st.integers(1, 3), min_size=nrows, max_size=nrows))
    return dim, rows, scales


def reference_vertices(rows, dim):
    """Every dim-subset of the dim + len(rows) constraints, solved exactly;
    the feasible solutions once each, with their binding constraints."""
    unit = [[Fraction(int(i == k)) for k in range(dim)] for i in range(dim)]
    constraints = [(u, Fraction(0)) for u in unit] + [
        ([Fraction(v) for v in row], Fraction(1)) for row in rows
    ]
    found = set()
    for subset in itertools.combinations(constraints, dim):
        point = solve_square([c for c, _ in subset], [b for _, b in subset])
        if point is None or any(v < 0 for v in point):
            continue
        values = [dot(row, point) for row in rows]
        if any(v > 1 for v in values):
            continue
        found.add((
            tuple(point),
            frozenset(i + 1 for i in range(dim) if point[i] == 0),
            frozenset(j + 1 for j, v in enumerate(values) if v == 1),
        ))
    return found


@settings(max_examples=300, deadline=None)
@given(integer_systems())
@example((2, [[1, 0], [0, 0]], [1, 1]))  # zero row: never binds
@example((2, [[1, 1], [1, 1], [2, 2]], [1, 3, 2]))  # repeated rows
@example((2, [[1, 0], [0, 1], [1, 1]], [1, 1, 1]))  # (1, 0) and (0, 1) bind three constraints
@example((3, [[-1, -2, -3]], [2]))  # unbounded: only the origin
def test_matches_brute_force_reference(system):
    dim, rows, scales = system
    int_rows = [(s, tuple(s * v for v in row)) for s, row in zip(scales, rows)]
    got = list(vertices_nonneg_form(int_rows, dim))
    assert len(got) == len(set(got))
    assert set(got) == reference_vertices(rows, dim)
