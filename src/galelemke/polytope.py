"""Exact vertex enumeration of ``{z >= 0, R z <= 1}`` by pivoting.

This is the one vertex enumerator: P and Q of a bimatrix game, the labeled
polytope of a unit-vector game and the canonical form of a dual cyclic
polytope all have this shape.  Each row of R comes as ``(scale,
integers)``, the row times the lcm of its denominators (the format of
``linalg.scaled_to_integers`` and ``BimatrixGame.integer_payoffs``), so
the slack dictionary ``integers . z + s = scale`` is integral.  The search
visits its feasible bases as lrs does (Avis 2000), one ``linalg.pivot``
per basis and one ``linalg.ratio_rows`` per cobasic column.  Each basis
is a ``Dictionary``, the compact integer dictionary that both
Lemke-Howson walks pivot too, as lrsnash does with one dictionary for
both jobs.  A vertex is its set of tight positions, which binds at no
other point of the polytope, so bases are grouped by that set: a
degenerate vertex, which has several, is reported once, and its order
key is read off those bases without solving anything else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvariantError
from .linalg import pivot, ratio_rows

ZERO = Fraction(0)


class Dictionary(NamedTuple):
    """A compact integer dictionary of ``{z >= 0, R z <= 1}``, as in lrs
    (Avis 2000) and lrsnash: the one pivoting kernel of the vertex
    enumerator and of both Lemke-Howson walks.

    Row r reads ``det * basis[r] + sum(rows[r][c] * cobasis[c]) =
    rows[r][-1]``, with ``det > 0`` the determinant of the basis: every
    entry is an integer over that common denominator.  Variable v < dim is
    z_v and variable dim + j the slack of row j, where dim is the length
    of the cobasis.
    """

    rows: list[list[int]]
    basis: list[int]
    cobasis: list[int]
    det: int

    @classmethod
    def slack(cls, int_rows, dim: int) -> "Dictionary":
        """The origin: rows ``(scale, integers)`` read ``integers . z + s =
        scale``, so the slack basis has det 1; positive row scales leave the
        ratio test, its ties and the lexicographic order unchanged."""
        rows = [[*integers, b] for b, integers in int_rows]
        return cls(rows, list(range(dim, dim + len(rows))), list(range(dim)), 1)

    def pivoted(self, r: int, c: int) -> "Dictionary":
        """The dictionary after ``cobasis[c]`` enters on row r (one
        ``linalg.pivot``); this one is left unchanged."""
        rows, basis, cobasis, det = self
        basis, cobasis = list(basis), list(cobasis)
        basis[r], cobasis[c] = cobasis[c], basis[r]
        # tuple.__new__ skips the NamedTuple's Python-level __new__: one call less per pivot
        return tuple.__new__(Dictionary, (pivot(rows, r, c, det), basis, cobasis, rows[r][c]))

    def scaled_point(self) -> list[int]:
        """The basic solution's z times ``det``."""
        dim = len(self.cobasis)
        z = [0] * dim
        for var, row in zip(self.basis, self.rows):
            if var < dim:
                z[var] = row[-1]
        return z

    def tight(self) -> int:
        """The vertex's tight set: bit v for each variable v cobasic or at 0."""
        rows, basis, cobasis, _ = self
        return sum(1 << v for v in cobasis) + sum(1 << v for v, row in zip(basis, rows) if not row[-1])


def feasible_bases(int_rows, dim):
    """Every feasible basis of ``{z >= 0, R z <= 1}`` as a ``Dictionary``,
    once each, depth first from the slack basis (the origin).

    Every cobasic column takes the min-ratio test and every tied leaving
    row is followed, because the graph of feasible bases is connected even
    on a degenerate polytope; a column with no positive entry is an
    unbounded edge.
    """
    mask = (1 << dim) - 1  # a cobasis as the bit mask of its variables
    seen = {mask}
    stack = [(Dictionary.slack(int_rows, dim), mask)]
    while stack:
        d, mask = stack.pop()
        yield d
        rows, basis, cobasis, _ = d
        for c, entering in enumerate(cobasis):
            for r in ratio_rows(rows, c):
                key = mask ^ (1 << entering) ^ (1 << basis[r])
                if key not in seen:
                    seen.add(key)
                    stack.append((d.pivoted(r, c), key))


def vertices_nonneg_form(int_rows, dim):
    """Vertices of ``{z >= 0, R z <= 1}``; ``int_rows`` lists the rows of R
    as ``(scale, integers)``, so row j reads ``integers . z <= scale``.

    Yields ``(point, tight)``: the 1-based positions of every constraint
    that binds there, i for ``z_i = 0`` and ``dim + j`` for ``(R z)_j = 1``.
    Bases are keyed by that tight set, so every vertex is reported once; a
    degenerate vertex has more than ``dim`` tight positions.

    The order is fixed by the key ``(|S|, S, T)``: S is the support, as
    ascending 0-based coordinates, and T the lexicographically first
    |S|-subset of the tight rows whose system on the columns S is
    nonsingular.  That is the order in which a search over square
    subsystems, by size, then free coordinates, then rows, first meets
    each vertex.  No subsystem is solved for T: such a subset is exactly
    the set of cobasic rows of a feasible basis of the vertex with |S|
    cobasic rows, and the walk visits every feasible basis.
    """
    found = {}  # tight mask -> (S, point)
    first_rows = {}  # tight mask -> T, the least cobasic rows of size |S| so far
    for d in feasible_bases(int_rows, dim):
        tight = d.tight()
        if tight not in found:  # a degenerate vertex's later bases give the same point
            point = tuple(Fraction(v, d.det) if v else ZERO for v in d.scaled_point())
            found[tight] = (tuple(i for i, v in enumerate(point) if v), point)
        # the cobasic slacks: rows shifted by dim, which keeps their order
        cobasic_rows = tuple(sorted(v for v in d.cobasis if v >= dim))
        if len(cobasic_rows) == len(found[tight][0]):
            first_rows[tight] = min(cobasic_rows, first_rows.get(tight, cobasic_rows))
    if len(first_rows) < len(found):
        raise InvariantError("vertex without a feasible basis on its support")
    for tight in sorted(found, key=lambda k: (len(found[k][0]), found[k][0], first_rows[k])):
        yield found[tight][1], frozenset(v + 1 for v in range(tight.bit_length()) if tight >> v & 1)
