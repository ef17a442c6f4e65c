"""Exact vertex enumeration of ``{z >= 0, R z <= 1}`` by pivoting.

This is the one vertex enumerator: P and Q of a bimatrix game, the labeled
polytope of a unit-vector game and the canonical form of a dual cyclic
polytope all have this shape.  Each row of R comes as ``(scale,
integers)``, the row times the lcm of its denominators (the format of
``linalg.scaled_to_integers`` and ``BimatrixGame.integer_payoffs``), so
the slack dictionary ``integers . z + s = scale`` is integral.  The search
visits its feasible bases as lrs does (Avis 2000), one ``linalg.pivot``
per basis and one ``linalg.ratio_rows`` per cobasic column, and refuses
more than MAX_BASES of them.  Each basis is a ``Dictionary``, the compact
integer dictionary that both Lemke-Howson walks pivot too, as lrsnash
does with one dictionary for both jobs.  A vertex is its set of tight
positions, which binds at no other point of the polytope, so bases are
grouped by that set: a degenerate vertex, which has several, is reported
once, and its order key is read off those bases without solving anything
else.

The dictionary has two row policies on one kernel.  ``Dictionary`` keeps
every row, which the enumerator reads in full at every basis.
``CoordinateDictionary`` keeps only the rows of basic coordinates and
reads a basic slack's row off its constraint when a walk needs it; on a
polytope with many more constraints than coordinates, such as P of the
m x 3m triple Morris game, that spares most of each pivot's row updates.
``walk_dictionary`` picks the policy once per walk, from the shape.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import BudgetExceededError, InvariantError
from .linalg import pivot, ratio_rows

ZERO = Fraction(0)
MAX_BASES = 1_000_000


class Dictionary(NamedTuple):
    """A compact integer dictionary of ``{z >= 0, R z <= 1}``, as in lrs
    (Avis 2000) and lrsnash: the one pivoting kernel of the vertex
    enumerator and of both Lemke-Howson walks.

    Row r reads ``det * basis[r] + sum(rows[r][c] * cobasis[c]) =
    rows[r][-1]``, with ``det > 0`` the determinant of the basis: every
    entry is an integer over that common denominator.  Variable v < dim is
    z_v and variable dim + j the slack of row j, where dim is the length
    of the cobasis.  A walk reads it through ``ratio_test``, ``entry``,
    ``row``, ``rhs`` and ``pivoted``, which ``CoordinateDictionary`` has
    too.
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

    def ratio_test(self, c: int) -> list[int]:
        """``linalg.ratio_rows`` on column c."""
        return ratio_rows(self.rows, c)

    def entry(self, r: int, c: int) -> int:
        return self.rows[r][c]

    def row(self, r: int) -> list[int]:
        """Row r: its cobasic columns, then its right-hand side."""
        return self.rows[r]

    @property
    def rhs(self) -> list[int]:
        return [row[-1] for row in self.rows]

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


class CoordinateDictionary:
    """``Dictionary`` in its coordinate-row form, for a tall polytope: it
    keeps the rows of the basic coordinates and the right-hand side of
    every row, and reads a basic slack's row off its constraint.

    Slack j of the row ``(scale, a)`` is ``scale - a . z``.  Times det,
    with each basic z_u replaced by its row, that is the slack's row of the
    full dictionary: ``det * a[v]`` in the column of a cobasic z_v, minus
    ``a[u] * row`` summed over the basic z_u (and ``det * scale`` minus the
    same sum on the right-hand side).  So a pivot Bareiss-updates at most
    ``dim`` kept rows (one ``linalg.pivot``) and one integer per
    right-hand side, and a slack's entries, small constraint integers times
    kept ones, are read only where a walk needs them: the entering column,
    the pivot row and the lexicographic columns of tied rows (Dantzig and
    Orchard-Hays 1954 keep the basis inverse for the same reason).
    ``rows[r]`` is None where ``basis[r]`` is a slack; the other fields
    are as in ``Dictionary``.
    """

    __slots__ = ("rows", "rhs", "basis", "cobasis", "det", "int_rows", "_columns")

    def __init__(self, rows, rhs, basis, cobasis, det, int_rows):
        self.rows, self.rhs, self.basis, self.cobasis, self.det = rows, rhs, basis, cobasis, det
        self.int_rows = int_rows
        self._columns = {}  # c -> column(c), each read once

    @classmethod
    def slack(cls, int_rows, dim: int) -> "CoordinateDictionary":
        """The origin, as ``Dictionary.slack``: no coordinate is basic."""
        basis = list(range(dim, dim + len(int_rows)))
        return cls([None] * len(basis), [b for b, _ in int_rows], basis, list(range(dim)), 1, int_rows)

    def column(self, c: int) -> list[list[int]]:
        """``[entry, rhs]`` of every row in column c."""
        if (out := self._columns.get(c)) is None:
            # column c on the coordinates, with -det at a cobasic z_v whose
            # column it is: a slack's entry is then -a . w
            dim = len(self.cobasis)
            w = [0] * dim
            for var, row in zip(self.basis, self.rows):
                if row is not None:
                    w[var] = row[c]
            if (v := self.cobasis[c]) < dim:
                w[v] = -self.det
            out = self._columns[c] = [
                [-sum(map(mul, self.int_rows[var - dim][1], w)) if row is None else row[c], b]
                for var, row, b in zip(self.basis, self.rows, self.rhs)
            ]
        return out

    def ratio_test(self, c: int) -> list[int]:
        """``linalg.ratio_rows`` on column c."""
        return ratio_rows(self.column(c), 0)

    def entry(self, r: int, c: int) -> int:
        return self.column(c)[r][0]

    def row(self, r: int) -> list[int]:
        """Row r as ``Dictionary`` holds it: its cobasic columns, then its
        right-hand side."""
        if (row := self.rows[r]) is not None:
            return row
        dim, det = len(self.cobasis), self.det
        a = self.int_rows[self.basis[r] - dim][1]
        out = [det * a[v] if v < dim else 0 for v in self.cobasis]
        for var, row in zip(self.basis, self.rows):
            if row is not None and (f := a[var]):
                out = [x - f * y for x, y in zip(out, row)]
        out.append(self.rhs[r])
        return out

    def pivoted(self, r: int, c: int) -> "CoordinateDictionary":
        """As ``Dictionary.pivoted``: the kept rows and the pivot row go
        through one ``linalg.pivot``, and each right-hand side takes the
        same Bareiss step on the entering column."""
        det, column = self.det, self.column(c)
        basis, cobasis = list(self.basis), list(self.cobasis)
        basis[r], cobasis[c] = cobasis[c], basis[r]
        at = [i for i, row in enumerate(self.rows) if row is not None and i != r]
        kept = pivot([*(self.rows[i] for i in at), self.row(r)], len(at), c, det)
        rows = [None] * len(basis)
        for i, row in zip(at, kept):
            rows[i] = row
        if basis[r] < len(cobasis):
            rows[r] = kept[-1]
        p, b = column[r]
        rhs = [(x * p - e * b) // det for e, x in column]
        rhs[r] = b
        return CoordinateDictionary(rows, rhs, basis, cobasis, p, self.int_rows)

    def scaled_point(self) -> list[int]:
        """As ``Dictionary.scaled_point``."""
        dim = len(self.cobasis)
        z = [0] * dim
        for var, b in zip(self.basis, self.rhs):
            if var < dim:
                z[var] = b
        return z

    def tight(self) -> int:
        """As ``Dictionary.tight``."""
        return sum(1 << v for v in self.cobasis) + sum(1 << v for v, b in zip(self.basis, self.rhs) if not b)


def walk_dictionary(int_rows, dim):
    """The slack dictionary a Lemke-Howson walk pivots, its row form chosen
    once from the shape: ``CoordinateDictionary`` when there are at least
    twice as many rows as coordinates, where most basic variables are
    slacks, and ``Dictionary`` otherwise."""
    return (CoordinateDictionary if len(int_rows) >= 2 * dim else Dictionary).slack(int_rows, dim)


def feasible_bases(int_rows, dim):
    """Every feasible basis of ``{z >= 0, R z <= 1}`` as a ``Dictionary``,
    once each, depth first from the slack basis (the origin).

    Every cobasic column takes the min-ratio test and every tied leaving
    row is followed, because the graph of feasible bases is connected even
    on a degenerate polytope; a column with no positive entry is an
    unbounded edge.  Raises BudgetExceededError in place of basis
    MAX_BASES + 1.
    """
    mask = (1 << dim) - 1  # a cobasis as the bit mask of its variables
    seen = {mask}
    stack = [(Dictionary.slack(int_rows, dim), mask)]
    for _ in range(MAX_BASES):
        if not stack:
            return
        d, mask = stack.pop()
        yield d
        rows, basis, cobasis, _ = d
        for c, entering in enumerate(cobasis):
            for r in ratio_rows(rows, c):
                key = mask ^ (1 << entering) ^ (1 << basis[r])
                if key not in seen:
                    seen.add(key)
                    stack.append((d.pivoted(r, c), key))
    if stack:
        raise BudgetExceededError(f"more than {MAX_BASES} feasible bases")


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
