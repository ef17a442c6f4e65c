"""Exact vertex enumeration of ``{z >= 0, R z <= 1}`` by pivoting.

This is the one vertex enumerator: P and Q of a bimatrix game, the labeled
polytope of a unit-vector game and the canonical form of a dual cyclic
polytope all have this shape.  Each row of R comes as ``(scale,
integers)``, the row times the lcm of its denominators (the format of
``linalg.scaled_to_integers`` and ``BimatrixGame.integer_payoffs``), so
the slack dictionary ``integers . z + s = scale`` is integral.  The search
visits its feasible bases as lrs does (Avis 2000), one ``linalg.pivot``
per basis and one ``linalg.ratio_rows`` per cobasic column, the pivot
step and min-ratio test of the Lemke-Howson tableaux; a degenerate vertex
has several bases and is reported once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import InvariantError
from .linalg import bareiss_solve, pivot, ratio_rows

ZERO = Fraction(0)


def feasible_bases(int_rows, dim):
    """Every feasible basis of the slack dictionary of ``{z >= 0, R z <=
    1}``, once each, depth first from the slack basis (the origin).

    Yields ``(rows, basis, cobasis, det)`` in the layout of
    ``linalg.pivot``: row r reads ``det * basis[r] + sum(rows[r][c] *
    cobasis[c]) = rows[r][-1]``, with ``det > 0``.  Variable v < dim is
    z_v and variable dim + j the slack of row j.  Every cobasic column
    takes the min-ratio test and every tied leaving row is followed,
    because the graph of feasible bases is connected even on a degenerate
    polytope; a column with no positive entry is an unbounded edge.
    """
    start = [[*integers, b] for b, integers in int_rows]
    mask = (1 << dim) - 1  # a cobasis as the bit mask of its variables
    seen = {mask}
    stack = [(start, list(range(dim, dim + len(int_rows))), list(range(dim)), 1, mask)]
    while stack:
        rows, basis, cobasis, det, mask = stack.pop()
        yield rows, basis, cobasis, det
        for c, entering in enumerate(cobasis):
            for r in ratio_rows(rows, c):
                leaving = basis[r]
                key = mask ^ (1 << entering) ^ (1 << leaving)
                if key in seen:
                    continue
                seen.add(key)
                new_basis = list(basis)
                new_basis[r] = entering
                new_cobasis = list(cobasis)
                new_cobasis[c] = leaving
                stack.append((pivot(rows, r, c, det), new_basis, new_cobasis, rows[r][c], key))


def vertices_nonneg_form(int_rows, dim):
    """Vertices of ``{z >= 0, R z <= 1}``; ``int_rows`` lists the rows of R
    as ``(scale, integers)``, so row j reads ``integers . z <= scale``.

    Yields ``(point, tight_coords, tight_rows)`` with 1-based index sets of
    the binding constraints (``z_i = 0`` and ``(R z)_j = 1`` respectively).
    Every vertex is reported once; the tight sets cover all constraints that
    bind there, so a degenerate vertex reports more than ``dim`` of them.

    The order is fixed by the key ``(|S|, S, T)``: S is the support, as
    ascending 0-based coordinates, and T the lexicographically first
    |S|-subset of the tight rows whose system on the columns S is
    nonsingular.  That is the order in which a search over square
    subsystems, by size, then free coordinates, then rows, first meets
    each vertex.
    """
    found = {}
    for rows, basis, cobasis, det in feasible_bases(int_rows, dim):
        scaled = [0] * dim
        for var, row in zip(basis, rows):
            if var < dim:
                scaled[var] = row[-1]
        g = gcd(det, *scaled)
        point_key = (tuple(v // g for v in scaled), det // g)
        if point_key in found:
            continue
        tight = set(cobasis)
        tight.update(var for var, row in zip(basis, rows) if row[-1] == 0)
        support = tuple(i for i in range(dim) if scaled[i])
        tight_rows = [v - dim for v in sorted(tight) if v >= dim]
        order = (len(support), support, _first_basis_rows(int_rows, support, tight_rows))
        found[point_key] = (order, scaled, det, tight)
    for _, scaled, det, tight in sorted(found.values(), key=lambda item: item[0]):
        point = tuple(Fraction(v, det) if v else ZERO for v in scaled)
        tight_coords = frozenset(v + 1 for v in tight if v < dim)
        yield point, tight_coords, frozenset(v - dim + 1 for v in tight if v >= dim)


def _first_basis_rows(int_rows, support, tight_rows) -> tuple[int, ...]:
    """The lexicographically first |support|-subset of ``tight_rows``
    (0-based, ascending) that is nonsingular on the columns ``support``.
    A nondegenerate vertex has exactly |support| tight rows, so it needs
    no solve."""
    if len(tight_rows) == len(support):
        return tuple(tight_rows)
    columns = {j: [int_rows[j][1][c] for c in support] + [int_rows[j][0]] for j in tight_rows}
    for subset in itertools.combinations(tight_rows, len(support)):
        if bareiss_solve([list(columns[j]) for j in subset]) is not None:
            return subset
    raise InvariantError("vertex without a nonsingular set of tight rows")
