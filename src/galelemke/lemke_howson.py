"""Complementary pivoting on the product of the two best-response polytopes.

The walk starts at the origin pair, drops the chosen missing label, and
alternates pivots between the two systems until that label is picked up
again, at which point the basic solution is an equilibrium.  On a
unit-vector game the Q moves are forced by the labels, so that walk pivots
P alone, by the label rule of the Gale engine.  All pivoting is exact and
runs on integers: each system is a dictionary of its cobasic columns with
one common denominator (the determinant of its basis), and every pivot is
a fraction-free Bareiss step, as in the integer pivoting of lrsnash (Avis,
Rosenberg, Savani and von Stengel 2010).  Ratio-test ties are always
broken lexicographically, which keeps the right-hand side nonnegative and
rules out cycling even on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateGameError, InvariantError
from .gale import _lemke_pivots
from .game import ZERO, BimatrixGame, LabelSet, MixedProfile, UnitVectorGame, simplex_scaled
from .linalg import pivot
from .paths import PivotPath, PivotStep, capped

DEFAULT_STEP_CAP = 10_000_000


class _Tableau:
    """One system as a compact integer dictionary, as in lrs (Avis 2000).

    Row r holds the coefficients of the cobasic (nonbasic) variables plus
    the right-hand side, all multiplied by the common denominator ``det``
    (the determinant of the current basis, kept positive).  ``basis[r]`` is
    the basic variable of row r and ``cobasis[c]`` the variable of column
    c.  A basic variable's column is implicit: ``det`` in its own row and
    0 elsewhere.  Variable ids are 0-based and id v carries label v+1.  The
    lexicographic rule reads the columns of the starting basis.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], cobasis: list[int]):
        self.rows = rows
        self.basis = basis
        self.cobasis = cobasis
        self.lex_cols = tuple(basis)
        self.det = 1
        self.saw_tie = False

    def choose_leaving(self, entering: int) -> int:
        """Row index of the leaving variable by the lexico-minimum ratio.

        Ratios are compared by cross-multiplication: ``_order`` gives the
        sign of row r's ratio minus row s's, and the common denominator
        cancels.  ``BimatrixGame.normalized`` gives every column of A and
        every row of B a positive entry, so P and Q are bounded and every
        entering column has a positive entry.
        """
        col = self.cobasis.index(entering)
        tied: list[int] = []
        for r, row in enumerate(self.rows):
            if row[col] <= 0:
                continue
            if tied:
                order = self._order(r, tied[0], col, -1)
                if order > 0:
                    continue
                if order == 0:
                    tied.append(r)
                    continue
            tied = [r]
        if not tied:
            raise InvariantError("entering column has no positive coefficient")
        if len(tied) == 1:
            return tied[0]
        self.saw_tie = True
        best = tied[0]
        for r in tied[1:]:
            order = 0
            for var in self.lex_cols:
                if var in self.cobasis:
                    order = self._order(r, best, col, self.cobasis.index(var))
                else:
                    # a basic column is det > 0 in its own row and 0 elsewhere
                    home = self.basis.index(var)
                    order = (r == home) * self.rows[best][col] - (best == home) * self.rows[r][col]
                if order:
                    break
            if order < 0:
                best = r
        return best

    def _order(self, r: int, s: int, col: int, other: int) -> int:
        """An integer with the sign of ``rows[r][other]/rows[r][col] -
        rows[s][other]/rows[s][col]``; both ``col`` coefficients are
        positive."""
        row_r, row_s = self.rows[r], self.rows[s]
        return row_r[other] * row_s[col] - row_s[other] * row_r[col]

    def pivot(self, entering: int, row_index: int) -> int:
        """Bring ``entering`` into the basis on the given row; returns the
        leaving variable.

        One integer pivot step (``linalg.pivot``): the pivot entry becomes
        the common denominator and the entering column then holds the
        leaving variable.
        """
        col = self.cobasis.index(entering)
        p = self.rows[row_index][col]
        if p <= 0:
            raise ValueError("pivot coefficient must be positive")
        self.rows = pivot(self.rows, row_index, col, self.det)
        self.det = p
        leaving = self.basis[row_index]
        self.basis[row_index] = entering
        self.cobasis[col] = leaving
        if any(r[-1] < 0 for r in self.rows):
            raise InvariantError("pivot broke right-hand side nonnegativity")
        return leaving

    def basic_value(self, var: int) -> Fraction:
        if var in self.cobasis:
            return ZERO
        return Fraction(self.rows[self.basis.index(var)][-1], self.det)

    def nonbasic_labels(self) -> LabelSet:
        return frozenset(v + 1 for v in self.cobasis)


def _build_tableaux(game: BimatrixGame) -> tuple[_Tableau, _Tableau]:
    """Initial integer dictionaries of P (one row per column of B, cobasic
    x) and Q (one row per row of A, cobasic y), slacks basic.  Each row is
    scaled to integers and its slack by the inverse scale, so the slack
    keeps coefficient 1 and the slack basis has determinant 1.  Positive
    row and column scales leave the ratio test, its ties and the
    lexicographic order unchanged.
    """
    a_rows, b_cols = game.integer_payoffs
    m, nvars = game.m, game.m + game.n
    p_rows = [[*col, scale] for scale, col in b_cols]
    q_rows = [[*entries, scale] for scale, entries in a_rows]
    tab_p = _Tableau(p_rows, list(range(m, nvars)), list(range(m)))
    tab_q = _Tableau(q_rows, list(range(m)), list(range(m, nvars)))
    return tab_p, tab_q


@dataclass(frozen=True)
class LhResult:
    """Outcome of one pivoting run: the equilibrium found and the path."""

    equilibrium: MixedProfile
    path: PivotPath

    @property
    def path_length(self) -> int:
        return self.path.path_length


def lh_steps(tableaux: tuple[_Tableau, _Tableau], missing_label: int):
    """Low-level pivot stream on the tableaux of ``_build_tableaux``; yields
    PivotStep records, pivots them in place and stops at the equilibrium."""
    tab_p, tab_q = tableaux
    m, nvars = len(tab_q.rows), len(tab_p.rows) + len(tab_q.rows)
    if not 1 <= missing_label <= nvars:
        raise ValueError(f"missing label {missing_label} out of range 1..{nvars}")
    side = "P" if missing_label <= m else "Q"
    entering = missing_label - 1
    while True:
        tab = tab_p if side == "P" else tab_q
        if entering not in tab.cobasis:
            raise InvariantError("entering variable is already basic")
        row = tab.choose_leaving(entering)
        dropped = entering + 1
        leaving = tab.pivot(entering, row)
        picked = leaving + 1
        vertex = (tab_p.nonbasic_labels(), tab_q.nonbasic_labels())
        yield PivotStep(dropped, picked, vertex, side)
        if picked == missing_label:
            return
        entering = picked - 1
        side = "Q" if side == "P" else "P"


def lh_solve(
    game: BimatrixGame,
    missing_label: int,
    step_cap: int | None = DEFAULT_STEP_CAP,
) -> LhResult:
    """Run the pivoting walk for one missing label and return the
    equilibrium it terminates at, with the full path record.

    The path may take exactly ``step_cap`` pivots of the product walk (P
    and Q moves both count; ``None`` means unbounded); a longer one raises
    StepCapExceededError with ``steps_taken == step_cap``.
    """
    m, n = game.m, game.n
    start = (frozenset(range(1, m + 1)), frozenset(range(m + 1, m + n + 1)))
    tab_p, tab_q = tableaux = _build_tableaux(game)
    steps = tuple(capped(lh_steps(tableaux, missing_label), step_cap))
    x_poly = [tab_p.basic_value(i) for i in range(m)]
    y_poly = [tab_q.basic_value(m + j) for j in range(n)]
    profile = MixedProfile(simplex_scaled(x_poly), simplex_scaled(y_poly))
    return LhResult(profile, PivotPath(missing_label, start, steps))


def lh_all_labels(game: BimatrixGame, **kwargs) -> list[tuple[int, LhResult]]:
    """One pivoting run per label; equilibria found may repeat."""
    return [(k, lh_solve(game, k, **kwargs)) for k in range(1, game.m + game.n + 1)]


def project_path(result: LhResult) -> tuple[list[LabelSet], list[LabelSet]]:
    """Vertex sequences induced on the two polytopes, as label sets.

    Each side's sequence is its start and the vertex after each of its own
    pivots: a pivot always changes the label set of the side that moved and
    never the other side's.  On a nondegenerate game both projections are
    simple: no vertex is left and visited again.
    """
    path = result.path
    xs = [path.start[0]] + [step.vertex[0] for step in path.steps if step.system == "P"]
    ys = [path.start[1]] + [step.vertex[1] for step in path.steps if step.system == "Q"]
    return xs, ys


def lemke_path_on_unit_vector_game(
    u: UnitVectorGame, missing_label: int, step_cap: int | None = DEFAULT_STEP_CAP
) -> PivotPath:
    """Path induced on the single labeled polytope of a unit-vector game,
    with vertices as frozensets of tight facet positions.

    Only P pivots.  Row i of A holds just the columns of label class i, so
    Q is a product of simplices and never ties, and its moves are forced:
    after P picks up a facet with label l, the product walk drops the other
    tight facet of P with label l (McLennan and Tourky 2010).  So P walks
    by the rule of ``gale._lemke_pivots``, and a tie in P's ratio test
    raises DegenerateGameError.  Missing label m+j walks the path of label
    ell(j).  The step cap counts P pivots and works as in ``lh_solve``.
    """
    m = u.m
    labels = (*range(1, m + 1), *u.ell)  # the label of each facet position
    if not 1 <= missing_label <= len(labels):
        raise ValueError(f"missing label {missing_label} out of range 1..{len(labels)}")
    target = labels[missing_label - 1]
    tab = _build_tableaux(u.to_bimatrix())[0]

    def step(bits: int, p: int) -> tuple[int, int]:
        row = tab.choose_leaving(p)
        if tab.saw_tie:
            raise DegenerateGameError("ratio-test tie on a game expected to be nondegenerate")
        q = tab.pivot(p, row)
        return bits ^ 1 << p | 1 << q, q

    pivots = _lemke_pivots(labels, m, target, step)
    steps = (PivotStep(drop, pick, tab.nonbasic_labels(), "P") for _, drop, pick in pivots)
    return PivotPath(target, frozenset(range(1, m + 1)), tuple(capped(steps, step_cap)))
