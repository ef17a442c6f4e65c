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
positions, which binds at no other point of the polytope, so
``vertex_table`` keys bases by that set and reports a degenerate vertex
once; ``ordered_vertices`` reads its order key off that set alone.

The dictionary has two row policies on one kernel, fixed at the origin.
``Dictionary.slack`` keeps every row, which the enumerator reads in full at
every basis.  ``Dictionary.walk_origin``, the start of a Lemke-Howson
walk, keeps only the rows of basic coordinates on a polytope with at least
twice as many constraints as coordinates, such as P of the m x 3m triple
Morris game, and reads a basic slack's row off its constraint when the
walk needs it; that spares most of each pivot's row updates.
``Dictionary.enter`` pivots either policy with one ratio test and one
lexicographic rule: ratio-test ties are always broken lexicographically,
which keeps the right-hand side nonnegative and rules out cycling even on
degenerate inputs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import BudgetExceededError, InvariantError
from .linalg import pivot, ratio_rows

MAX_BASES = 1_000_000


class Dictionary(NamedTuple):
    """A compact integer dictionary of ``{z >= 0, R z <= 1}``, as in lrs
    (Avis 2000) and lrsnash: the one pivoting kernel of the vertex
    enumerator and of both Lemke-Howson walks.

    Row r reads ``det * basis[r] + sum(rows[r][c] * cobasis[c]) =
    rows[r][-1]``, with ``det > 0`` the determinant of the basis: every
    entry is an integer over that common denominator.  Variable v < dim is
    z_v and variable dim + j the slack of row j, where dim is the length
    of the cobasis.  A walk pivots it through ``enter``, whichever rows it
    keeps.

    When ``int_rows`` holds the constraints ``(scale, a)``, a basic slack's
    row is only ``[rhs]``.  Slack j is ``scale - a . z``: times det, with
    each basic z_u replaced by its row, that is ``det * a[v]`` in the
    column of a cobasic z_v minus ``a[u] * rows[u]`` summed over the basic
    z_u.  So a pivot Bareiss-updates at most dim kept rows (one
    ``linalg.pivot``) and one integer per slack row, and a slack's entries
    are read only where a walk needs them: the entering column, the pivot
    row and the lexicographic columns of tied rows (Dantzig and Orchard-Hays
    1954 keep the basis inverse for the same reason).
    """

    rows: list[list[int]]
    basis: list[int]
    cobasis: list[int]
    det: int
    int_rows: list | None = None  # the constraints when a basic slack's row is [rhs]
    columns: dict | None = None  # with int_rows: c -> ``column(c)``, each read once

    @classmethod
    def slack(cls, int_rows, dim: int) -> "Dictionary":
        """The origin with every row kept: rows ``(scale, integers)`` read
        ``integers . z + s = scale``, so the slack basis has det 1; positive
        row scales leave the ratio test, its ties and the lexicographic order
        unchanged."""
        rows = [[*integers, b] for b, integers in int_rows]
        return cls(rows, list(range(dim, dim + len(rows))), list(range(dim)), 1)

    @classmethod
    def walk_origin(cls, int_rows, dim: int) -> "Dictionary":
        """The origin a Lemke-Howson walk pivots: as ``slack``, but with
        only the coordinate rows kept when there are at least twice as many
        rows as coordinates, where most basic variables are slacks."""
        if len(int_rows) < 2 * dim:
            return cls.slack(int_rows, dim)
        return cls([[b] for b, _ in int_rows], list(range(dim, dim + len(int_rows))), list(range(dim)), 1, int_rows, {})

    def pivoted(self, r: int, c: int) -> "Dictionary":
        """The dictionary after ``cobasis[c]`` enters on row r (one
        ``linalg.pivot``); this one is left unchanged."""
        rows, basis, cobasis, det, int_rows, _ = self
        basis, cobasis = list(basis), list(cobasis)
        basis[r], cobasis[c] = cobasis[c], basis[r]
        if int_rows is None:
            # tuple.__new__ skips the NamedTuple's Python-level __new__: one call less per pivot
            return tuple.__new__(Dictionary, (pivot(rows, r, c, det), basis, cobasis, rows[r][c], None, None))
        # the kept rows and the pivot row go through one linalg.pivot, and each
        # slack row's right-hand side takes the same Bareiss step on column c
        dim, column = len(cobasis), self.column(c)
        p, b = column[r]
        at = [i for i, var in enumerate(basis) if var < dim and i != r]
        kept = pivot([*(rows[i] for i in at), self.row(r)], len(at), c, det)
        out = [None if var < dim else [(x * p - e * b) // det] for var, (e, x) in zip(basis, column)]
        for i, row in zip(at, kept):
            out[i] = row
        out[r] = kept[-1] if basis[r] < dim else [b]
        return tuple.__new__(Dictionary, (out, basis, cobasis, p, int_rows, {}))

    def column(self, c: int) -> list[list[int]]:
        """``[entry, rhs]`` of every row in column c, with ``int_rows`` set."""
        if (out := self.columns.get(c)) is None:
            # column c on the coordinates, with -det at a cobasic z_v whose
            # column it is: a slack's entry is then -a . w
            dim, int_rows = len(self.cobasis), self.int_rows
            w = [0] * dim
            for var, row in zip(self.basis, self.rows):
                if var < dim:
                    w[var] = row[c]
            if (v := self.cobasis[c]) < dim:
                w[v] = -self.det
            out = self.columns[c] = [
                [row[c], row[-1]] if var < dim else [-sum(map(mul, int_rows[var - dim][1], w)), row[0]]
                for var, row in zip(self.basis, self.rows)
            ]
        return out

    def leaving_row(self, c: int) -> tuple[int, bool]:
        """Row of the leaving variable when column c enters, by the
        lexico-minimum ratio, and whether the ratio test tied.

        ``linalg.ratio_rows`` on column c, whichever rows are kept, gives
        the rows at the minimum ratio.  A tie goes to the lexicographic
        rule, read through ``entry``: the same test over the tied rows, on
        each column of the starting slack basis in turn, until one row is
        left.  Those columns hold the inverse of the basis, whose rows are
        independent, so one always is.  ``BimatrixGame.normalized`` gives
        every column of A and every row of B a positive entry, so P and Q
        are bounded and every entering column has a positive entry.
        """
        tied = ratio_rows(self.rows, c) if self.int_rows is None else ratio_rows(self.column(c), 0)
        if len(tied) == 1:
            return tied[0], False
        if not tied:
            raise InvariantError("entering column has no positive coefficient")
        basis, cobasis, det = self.basis, self.cobasis, self.det
        for var in range(len(cobasis), len(cobasis) + len(basis)):
            if var in cobasis:
                other = cobasis.index(var)
                lex = [[self.entry(r, c), self.entry(r, other)] for r in tied]
            else:
                # a basic column is det > 0 in its own row and 0 elsewhere
                home = basis.index(var)
                lex = [[self.entry(r, c), det * (r == home)] for r in tied]
            tied = [tied[i] for i in ratio_rows(lex, 0)]
            if len(tied) == 1:
                break
        return tied[0], True

    def enter(self, v: int) -> tuple["Dictionary", int, bool]:
        """Pivot variable v in on the row ``leaving_row`` picks; returns the
        new dictionary, the leaving variable and whether the ratio test tied."""
        try:
            c = self.cobasis.index(v)
        except ValueError:
            raise InvariantError(f"entering variable {v} is already basic") from None
        r, tied = self.leaving_row(c)
        new = self.pivoted(r, c)
        if min(new.rhs) < 0:
            raise InvariantError("pivot broke right-hand side nonnegativity")
        return new, self.basis[r], tied

    def entry(self, r: int, c: int) -> int:
        row = self.rows[r]
        return row[c] if len(row) > 1 else self.column(c)[r][0]

    def row(self, r: int) -> list[int]:
        """Row r in full: its cobasic columns, then its right-hand side."""
        if len(row := self.rows[r]) > 1:
            return row
        dim, det = len(self.cobasis), self.det
        a = self.int_rows[self.basis[r] - dim][1]
        out = [det * a[v] if v < dim else 0 for v in self.cobasis]
        for var, kept in zip(self.basis, self.rows):
            if var < dim and (f := a[var]):
                out = [x - f * y for x, y in zip(out, kept)]
        out.append(row[0])
        return out

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
        return sum(1 << v for v in self.cobasis) + sum(1 << v for v, row in zip(self.basis, self.rows) if not row[-1])


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
        rows, basis, cobasis, _, _, _ = d
        for c, entering in enumerate(cobasis):
            for r in ratio_rows(rows, c):
                key = mask ^ (1 << entering) ^ (1 << basis[r])
                if key not in seen:
                    seen.add(key)
                    stack.append((d.pivoted(r, c), key))
    if stack:
        raise BudgetExceededError(f"more than {MAX_BASES} feasible bases")


def vertex_table(int_rows, dim) -> dict[int, tuple[list[int], int]]:
    """One walk of ``feasible_bases``: each vertex of ``{z >= 0, R z <= 1}``
    as its ``Dictionary.tight`` mask mapped to ``(scaled_point(), det)`` of
    the first basis met.  Row j of R is ``(scale, integers)``, read ``integers . z <= scale``."""
    table = {}
    for d in feasible_bases(int_rows, dim):
        if (tight := d.tight()) not in table:  # a degenerate vertex's later bases give the same point
            table[tight] = (d.scaled_point(), d.det)
    return table


def ordered_vertices(table, dim):
    """The vertices of a ``vertex_table`` as ``(point, tight)``, tight the
    1-based positions that bind there: i for ``z_i = 0``, ``dim + j`` for
    ``(R z)_j = 1``.  They are sorted by ``(|S|, S, R)``: S the ascending
    coordinates that are not tight, R the ascending tight rows, as tuples.

    A search over square subsystems, by size, then free coordinates, then
    rows, meets a vertex first at T, the least |S| tight rows nonsingular
    on the columns S: R's greedy basis there.  Let two vertices on one S
    first differ in R at row r, tight at the first only.  A row that
    depends on the rows before r binds wherever they bind, so r does not
    depend on them: both greedy bases take the same rows before r, then
    the first takes r and the second a later row.  So T orders them as R.
    """
    def key(tight):
        support = tuple(v for v in range(dim) if not tight >> v & 1)
        return len(support), support, tuple(v for v in range(dim, tight.bit_length()) if tight >> v & 1)

    zero = Fraction(0)  # one zero for every vertex: Fraction(0, det) costs a gcd
    for tight in sorted(table, key=key):
        point, det = table[tight]
        yield tuple(Fraction(v, det) if v else zero for v in point), frozenset(v + 1 for v in range(tight.bit_length()) if tight >> v & 1)
