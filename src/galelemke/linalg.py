"""Exact linear algebra on integers: fraction-free (Bareiss) elimination
and the matching pivot step, every exact elimination in the package.

``bareiss_solve`` solves an integer system and returns a common
denominator (support guessing, vertices of a cyclic canonical form).
``pivot`` is the one integer pivot step on a compact dictionary and
``ratio_rows`` its one min-ratio test, both shared by the Lemke-Howson
tableaux and the vertex enumerator, which solves no system of its own;
m pivots also build a cyclic polytope's canonical form.

Singular systems are a normal negative outcome here, not an error: callers
probing support combinations simply get ``None``.
"""

from __future__ import annotations

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


def pivot(rows, r: int, c: int, det: int) -> list[list[int]]:
    """One fraction-free pivot of a compact integer dictionary on entry
    ``(r, c)``; returns the new rows and leaves ``rows`` unchanged.

    ``rows`` hold the cobasic columns and the right-hand side over the
    common denominator ``det``.  Row r stays as it is, every other row
    becomes ``(v*p - f*w) // det`` (an exact division; a row with f == 0
    becomes ``v*p // det``, which is itself when p == det), and the pivot
    entry p is the new common denominator.  Column c then holds the
    leaving variable: the old ``det`` in row r and ``-f`` in every other
    row.  A row that does not change may be shared with ``rows``.
    """
    row = rows[r]
    p = row[c]
    out = []
    for i, other in enumerate(rows):
        if i == r:
            new = list(row)
            new[c] = det
        else:
            f = other[c]
            if f == 0:
                new = other if p == det else [v * p // det for v in other]
            else:
                new = [(v * p - f * w) // det for v, w in zip(other, row)]
                new[c] = -f
        out.append(new)
    return out


def ratio_rows(rows, c: int) -> list[int]:
    """The min-ratio test of a compact dictionary on column c: the rows,
    ascending, whose ratio ``row[-1] / row[c]`` is least among the rows
    with ``row[c] > 0``; ``[]`` when there is none.  Ratios are compared
    by cross-multiplication, so a common denominator cancels."""
    tied: list[int] = []
    for r, row in enumerate(rows):
        a = row[c]
        if a > 0:
            order = row[-1] * best_a - best_rhs * a if tied else -1
            if order < 0:
                tied, best_a, best_rhs = [r], a, row[-1]
            elif order == 0:
                tied.append(r)
    return tied
