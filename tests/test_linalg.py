"""The integer Bareiss kernel against plain Gauss-Jordan over Fractions."""

import random
from fractions import Fraction

import pytest

from galelemke.linalg import bareiss_solve, pivot, solve_square


def _gauss_jordan(matrix, rhs):
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot is None:
            return None
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[k])]
    return [row[n] for row in aug]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_gauss_jordan(seed):
    rng = random.Random(seed)
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        # small entries make singular systems common
        aug = [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n)]
        expected = _gauss_jordan([row[:n] for row in aug], [row[n] for row in aug])
        solved = bareiss_solve([list(row) for row in aug])
        if expected is None:
            assert solved is None
            singular += 1
            continue
        numerators, denominator = solved
        assert denominator > 0
        assert [Fraction(v, denominator) for v in numerators] == expected
    assert 0 < singular < 300


def test_solve_square_takes_rationals():
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2, 5), 1]]
    rhs = [Fraction(1, 7), 2]
    assert solve_square(matrix, rhs) == _gauss_jordan(matrix, rhs)
    assert solve_square([[1, 2], [2, 4]], [1, 1]) is None
    assert solve_square([], []) == []
    with pytest.raises(ValueError):
        solve_square([[1, 2]], [1])


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
