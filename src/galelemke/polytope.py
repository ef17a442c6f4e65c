"""Exhaustive exact vertex enumeration of ``{z >= 0, R z <= 1}``.

This is the one vertex enumerator: P and Q of a bimatrix game, the labeled
polytope of a unit-vector game and the canonical form of a dual cyclic
polytope all have this shape.  Brute force over square subsystems of
binding constraints; intended as an oracle and for nondegeneracy checks,
its cost grows as C(dim + #rows, dim).  Each row of R comes as
``(scale, integers)``, the row times the lcm of its denominators (the
format of ``linalg.scaled_to_integers`` and
``BimatrixGame.integer_payoffs``), so the inner loops run on integers: each
subsystem goes to the Bareiss kernel, and candidate points stay as
numerators over a common denominator until a new vertex is found.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .linalg import bareiss_solve

ZERO = Fraction(0)


def vertices_nonneg_form(int_rows, dim):
    """Vertices of ``{z >= 0, R z <= 1}``; ``int_rows`` lists the rows of R
    as ``(scale, integers)``, so row j reads ``integers . z <= scale``.

    Yields ``(point, tight_coords, tight_rows)`` with 1-based index sets of
    the binding constraints (``z_i = 0`` and ``(R z)_j = 1`` respectively).
    Every vertex is reported once; the tight sets cover all constraints that
    bind there, so a degenerate vertex reports more than ``dim`` of them.
    """
    nrows = len(int_rows)
    seen: set[tuple] = set()
    for k in range(0, dim + 1):
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
                feasible = True
                tight_rows = set()
                for j, (b, row) in enumerate(int_rows):
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
