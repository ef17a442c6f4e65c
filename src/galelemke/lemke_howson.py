"""Complementary pivoting on the product of the two best-response polytopes.

The walk starts at the origin pair, drops the chosen missing label, and
alternates pivots between the two systems until that label is picked up
again, at which point the basic solution is an equilibrium.  On a
unit-vector game the Q moves are forced by the labels, so that walk pivots
P alone.  Both walks run on the label-forced loop ``gale._lemke_pivots``.
All pivoting is exact and runs on integers: each system is a dictionary
of its cobasic columns with one common denominator (the determinant of
its basis), every pivot is a fraction-free Bareiss step, as in the
integer pivoting of lrsnash (Avis, Rosenberg, Savani and von Stengel
2010), and the min-ratio test is ``linalg.ratio_rows``.  Ratio-test ties
are always broken lexicographically, which keeps the right-hand side
nonnegative and rules out cycling even on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from .errors import DegenerateGameError, InvariantError
from .gale import _lemke_pivots
from .game import BimatrixGame, LabelSet, MixedProfile, UnitVectorGame, simplex_scaled
from .linalg import pivot, ratio_rows
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

        ``linalg.ratio_rows`` gives the rows at the minimum ratio.  A tie
        goes to the lexicographic rule: the same test over the tied rows,
        on each column of the starting basis in turn.  Those columns hold
        the inverse of the basis, whose rows are independent, so one row
        is left.  ``BimatrixGame.normalized`` gives every column of A and
        every row of B a positive entry, so P and Q are bounded and every
        entering column has a positive entry.
        """
        col = self._column(entering)
        tied = ratio_rows(self.rows, col)
        if len(tied) == 1:
            return tied[0]
        if not tied:
            raise InvariantError("entering column has no positive coefficient")
        self.saw_tie = True
        for var in self.lex_cols:
            if var in self.cobasis:
                other = self.cobasis.index(var)
                lex = [[self.rows[r][col], self.rows[r][other]] for r in tied]
            else:
                # a basic column is det > 0 in its own row and 0 elsewhere
                home = self.basis.index(var)
                lex = [[self.rows[r][col], self.det * (r == home)] for r in tied]
            tied = [tied[i] for i in ratio_rows(lex, 0)]
        return tied[0]

    def _column(self, var: int) -> int:
        try:
            return self.cobasis.index(var)
        except ValueError:
            raise InvariantError(f"entering variable {var} is already basic") from None

    def pivot(self, entering: int, row_index: int) -> int:
        """Bring ``entering`` into the basis on the given row; returns the
        leaving variable.

        One integer pivot step (``linalg.pivot``): the pivot entry becomes
        the common denominator and the entering column then holds the
        leaving variable.
        """
        col = self._column(entering)
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

    def basic_value(self, var: int) -> int:
        """The value of ``var`` times ``det`` (0 when it is cobasic)."""
        if var in self.cobasis:
            return 0
        return self.rows[self.basis.index(var)][-1]


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
    PivotStep records, pivots them in place and stops at the equilibrium.

    The walk is ``gale._lemke_pivots``: position v is P's variable v and
    position m+n+v Q's, both with label v+1, and the tight positions are
    the cobasic ones.  The lexicographic rule keeps each label but the
    missing one on two tight positions, one per system, so P and Q alternate.
    The walk keeps the two label sets itself: a pivot replaces only the
    moved side's set, so consecutive steps share the other side's.
    """
    tab_p, tab_q = tableaux
    m, nvars = len(tab_q.rows), len(tab_p.rows) + len(tab_q.rows)
    labels = [*range(1, nvars + 1)] * 2
    start = (1 << m) - 1 | ((1 << nvars) - (1 << m)) << nvars  # x cobasic in P, y in Q

    def step(bits: int, p: int) -> tuple[int, int]:
        tab, base = (tab_p, 0) if p < nvars else (tab_q, nvars)
        q = base + tab.pivot(p - base, tab.choose_leaving(p - base))
        return bits ^ 1 << p | 1 << q, q

    pivots = _lemke_pivots(labels, start, missing_label, step)
    vertex = [frozenset(range(1, m + 1)), frozenset(range(m + 1, nvars + 1))]
    for (_, dropped, picked), side in zip(pivots, cycle((0, 1) if missing_label <= m else (1, 0))):
        vertex[side] = vertex[side] - {dropped} | {picked}
        yield PivotStep(dropped, picked, tuple(vertex), "PQ"[side])


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

    pivots = _lemke_pivots(labels, (1 << m) - 1, target, step)
    steps = (PivotStep(d, k, frozenset(v + 1 for v in tab.cobasis), "P") for _, d, k in pivots)
    return PivotPath(target, frozenset(range(1, m + 1)), tuple(capped(steps, step_cap)))
