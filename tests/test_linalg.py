"""The integer Bareiss kernel against plain Gauss-Jordan over Fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke.linalg import bareiss_solve, pivot, ratio_rows

from conftest import gauss_jordan


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_gauss_jordan(seed):
    rng = random.Random(seed)
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        # small entries make singular systems common
        aug = [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n)]
        expected = gauss_jordan([row[:n] for row in aug], [row[n] for row in aug])
        solved = bareiss_solve([list(row) for row in aug])
        if expected is None:
            assert solved is None
            singular += 1
            continue
        numerators, denominator = solved
        assert denominator > 0
        assert [Fraction(v, denominator) for v in numerators] == expected
    assert 0 < singular < 300


@pytest.mark.parametrize("seed", range(4))
def test_pivot_is_undone_by_the_same_pivot(seed):
    # pivoting back on the same entry restores the dictionary exactly, so
    # every division of both steps is exact
    rng = random.Random(seed)
    for _ in range(200):
        rows = [[rng.randint(-3, 5) for _ in range(rng.randint(1, 4) + 1)]]
        rows += [[rng.randint(-3, 5) for _ in rows[0]] for _ in range(rng.randint(0, 4))]
        r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]) - 1)
        if rows[r][c] == 0:
            continue
        before = [list(row) for row in rows]
        once = pivot(rows, r, c, 1)
        assert rows == before
        assert once[r][c] == 1
        assert pivot(once, r, c, rows[r][c]) == before


@st.composite
def dictionaries(draw):
    """Integer rows of a compact dictionary times a common scale > 1, with
    zero and negative entries, and small values so that ratios often tie."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width + 1, max_size=width + 1),
                         max_size=6))
    scale = draw(st.integers(2, 5))
    return [[scale * v for v in row] for row in rows], draw(st.integers(0, width - 1))


@settings(max_examples=400, deadline=None)
@given(dictionaries())
@example(([[2, 4], [-2, 2], [4, 8], [0, 6], [3, 9]], 0))  # rows 0 and 2 tie
@example(([[0, 4], [-2, 2]], 0))  # no positive entry
def test_ratio_rows_matches_fraction_reference(case):
    rows, c = case
    ratios = {r: Fraction(row[-1], row[c]) for r, row in enumerate(rows) if row[c] > 0}
    least = min(ratios.values(), default=None)
    assert ratio_rows(rows, c) == [r for r, ratio in ratios.items() if ratio == least]
