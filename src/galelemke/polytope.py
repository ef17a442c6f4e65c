"""Exact vertex enumeration of ``{z >= 0, R z <= 1}`` by pivoting.

This is the one vertex enumerator: P and Q of a bimatrix game, the labeled
polytope of a unit-vector game and the canonical form of a dual cyclic
polytope all have this shape.  Each row of R comes as ``(scale,
integers)``, the row times the lcm of its denominators (the format of
``linalg.scaled_to_integers`` and ``BimatrixGame.integer_payoffs``), so
the slack dictionary ``integers . z + s = scale`` is integral.  The search
visits its feasible bases as lrs does (Avis 2000), one ``linalg.pivot``
per basis and one ``linalg.ratio_rows`` per cobasic column, the pivot
step and min-ratio test of the Lemke-Howson tableaux.  A degenerate vertex
has several bases and is reported once, with one set of tight positions;
its order key is read off those bases, so nothing else is solved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantError
from .linalg import pivot, ratio_rows

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

    Yields ``(point, tight)``: the 1-based positions of every constraint
    that binds there, i for ``z_i = 0`` and ``dim + j`` for ``(R z)_j = 1``.
    Every vertex is reported once; a degenerate vertex has more than
    ``dim`` tight positions.

    The order is fixed by the key ``(|S|, S, T)``: S is the support, as
    ascending 0-based coordinates, and T the lexicographically first
    |S|-subset of the tight rows whose system on the columns S is
    nonsingular.  That is the order in which a search over square
    subsystems, by size, then free coordinates, then rows, first meets
    each vertex.  No subsystem is solved for T: such a subset is exactly
    the set of cobasic rows of a feasible basis of the vertex with |S|
    cobasic rows, and the walk visits every feasible basis.
    """
    found = {}  # point key -> (S, point, tight positions)
    first_rows = {}  # point key -> T, the least cobasic rows of size |S| so far
    for rows, basis, cobasis, det in feasible_bases(int_rows, dim):
        scaled = [0] * dim
        for var, row in zip(basis, rows):
            if var < dim:
                scaled[var] = row[-1]
        g = gcd(det, *scaled)
        point_key = (tuple(v // g for v in scaled), det // g)
        if point_key not in found:
            tight = [*cobasis, *(var for var, row in zip(basis, rows) if row[-1] == 0)]
            found[point_key] = (
                tuple(i for i in range(dim) if scaled[i]),
                tuple(Fraction(v, det) if v else ZERO for v in scaled),
                frozenset(v + 1 for v in tight),
            )
        # the cobasic slacks: rows shifted by dim, which keeps their order
        cobasic_rows = tuple(sorted(v for v in cobasis if v >= dim))
        if len(cobasic_rows) == len(found[point_key][0]):
            first_rows[point_key] = min(cobasic_rows, first_rows.get(point_key, cobasic_rows))
    if len(first_rows) < len(found):
        raise InvariantError("vertex without a feasible basis on its support")
    for key in sorted(found, key=lambda k: (len(found[k][0]), found[k][0], first_rows[k])):
        yield found[key][1:]
