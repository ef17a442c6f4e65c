"""Exhaustive exact vertex enumeration for small inequality-defined polytopes.

Brute force over square subsystems of binding constraints.  Intended as an
oracle and for nondegeneracy checks; cost grows as C(#constraints, dim).
The inner loops of ``vertices_nonneg_form`` run on integers: rows are
scaled once, each subsystem goes to the Bareiss kernel, and candidate points
stay as numerators over a common denominator until a new vertex is found.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .linalg import bareiss_solve, dot, scaled_to_integers, solve_square

ZERO = Fraction(0)


def vertices_nonneg_form(rows, dim):
    """Vertices of ``{z >= 0, R z <= 1}`` where ``rows`` lists the rows of R.

    Yields ``(point, tight_coords, tight_rows)`` with 1-based index sets of
    the binding constraints (``z_i = 0`` and ``(R z)_j = 1`` respectively).
    Every vertex is reported once; the tight sets cover all constraints that
    bind there, so a degenerate vertex reports more than ``dim`` of them.
    """
    nrows = len(rows)
    # R z <= 1 scaled row by row: (integer row, integer right-hand side)
    int_rows = [(ints, scale) for scale, ints in map(scaled_to_integers, rows)]
    seen: set[tuple] = set()
    for k in range(0, dim + 1):
        for free in itertools.combinations(range(dim), k):
            columns = [[row[c] for c in free] + [b] for row, b in int_rows]
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
                feasible = True
                tight_rows = set()
                for j, (row, b) in enumerate(int_rows):
                    value = sum(c * z for c, z in zip(row, scaled))
                    bound = b * den
                    if value > bound:
                        feasible = False
                        break
                    if value == bound:
                        tight_rows.add(j + 1)
                if not feasible:
                    continue
                seen.add(key)
                tight_coords = frozenset(i + 1 for i in range(dim) if scaled[i] == 0)
                point = tuple(Fraction(v, den) if v else ZERO for v in scaled)
                yield point, tight_coords, frozenset(tight_rows)


def vertices_general_form(rows, rhs):
    """Vertices of ``{x : rows @ x <= rhs}``.

    Yields ``(point, tight_rows)`` with the 1-based set of binding rows.
    """
    nrows = len(rows)
    dim = len(rows[0])
    seen: set[tuple] = set()
    for subset in itertools.combinations(range(nrows), dim):
        sub = [rows[r] for r in subset]
        sol = solve_square(sub, [rhs[r] for r in subset])
        if sol is None:
            continue
        key = tuple(sol)
        if key in seen:
            continue
        feasible = True
        tight = set()
        for j, row in enumerate(rows):
            value = dot(row, sol)
            if value > rhs[j]:
                feasible = False
                break
            if value == rhs[j]:
                tight.add(j + 1)
        if not feasible:
            continue
        seen.add(key)
        yield key, frozenset(tight)
