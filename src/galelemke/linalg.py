"""Exact linear algebra: one fraction-free (Bareiss) integer kernel.

``bareiss_solve`` works on integer systems and returns a common
denominator; callers that keep their data as integers (support guessing,
vertex enumeration) use it directly.  ``solve_square`` is the rational
front: it scales each row to integers and returns Fractions.

Singular systems are a normal negative outcome here, not an error: callers
probing support combinations or constraint subsets simply get ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def scaled_to_integers(entries) -> tuple[int, tuple[int, ...]]:
    """``(scale, integers)``: rational entries times the lcm of their
    denominators.  A positive row scale keeps a system's solutions."""
    scale = lcm(*(e.denominator for e in entries))
    return scale, tuple(e.numerator * (scale // e.denominator) for e in entries)


def bareiss_solve(aug) -> tuple[list[int], int] | None:
    """Solve the integer augmented system ``aug = [M | b]`` (n rows of n+1
    integers, modified in place) by fraction-free elimination.

    Returns ``(numerators, denominator)`` with ``denominator > 0`` and
    ``x[i] == numerators[i] / denominator``, or None if M is singular.  Every
    division is exact: the denominator is |det M| and the numerators are
    Cramer's determinants, so back substitution stays in the integers.
    """
    n = len(aug)
    prev = 1
    for k in range(n):
        row_k = aug[k]
        if row_k[k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if aug[r][k] != 0), None)
            if pivot_row is None:
                return None
            aug[k], aug[pivot_row] = aug[pivot_row], row_k
            row_k = aug[k]
        pk = row_k[k]
        tail_k = row_k[k + 1:]
        # only columns past k are read again, so the rest is left stale
        for i in range(k + 1, n):
            row_i = aug[i]
            rik = row_i[k]
            if rik != 0:
                row_i[k + 1:] = [(v * pk - rik * w) // prev for v, w in zip(row_i[k + 1:], tail_k)]
            elif pk != prev:
                row_i[k + 1:] = [v * pk // prev for v in row_i[k + 1:]]
        prev = pk
    numerators = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = prev * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * numerators[j]
        numerators[i] = acc // row[i]
    if prev < 0:
        return [-v for v in numerators], -prev
    return numerators, prev


def solve_square(matrix, rhs) -> list[Fraction] | None:
    """Solve the square rational system ``matrix @ x = rhs`` exactly.

    Returns the solution as Fractions, or None if the matrix is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_square needs an n>=0 square matrix and matching rhs")
    aug = [list(scaled_to_integers([*row, b])[1]) for row, b in zip(matrix, rhs)]
    solved = bareiss_solve(aug)
    if solved is None:
        return None
    numerators, denominator = solved
    return [Fraction(v, denominator) for v in numerators]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
