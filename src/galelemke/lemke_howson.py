"""Complementary pivoting on the product of the two best-response polytopes.

The walk starts at the origin pair, drops the chosen missing label, and
alternates pivots between the two systems until that label is picked up
again, at which point the basic solution is an equilibrium.  All pivoting is
exact and runs on integers: each system keeps one common denominator (the
determinant of its basis) and every pivot is a fraction-free Bareiss step,
as in the integer pivoting of lrsnash (Avis, Rosenberg, Savani and von
Stengel 2010).  The lexicographic ratio test keeps the right-hand side
nonnegative and rules out cycling even on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CyclingError,
    DegenerateGameError,
    InvariantError,
    UnboundedPolytopeError,
)
from .game import (
    BimatrixGame,
    LabelSet,
    MixedProfile,
    UnitVectorGame,
    simplex_scaled,
)
from .paths import PivotPath, PivotStep, capped

DEFAULT_STEP_CAP = 10_000_000

ZERO = Fraction(0)


class _Tableau:
    """One system in row dictionary form over the integers.

    Every row holds the coefficients of all variables plus the right-hand
    side, all multiplied by the common denominator ``det`` (the determinant
    of the current basis, kept positive); ``basis[r]`` is the basic variable
    of row r, and its column holds ``det`` in row r and 0 elsewhere.
    Variable ids are 0-based and id v carries label v+1.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], lex_cols: tuple[int, ...]):
        self.rows = rows
        self.basis = basis
        self.lex_cols = lex_cols
        self.det = 1
        self.saw_tie = False

    def is_basic(self, var: int) -> bool:
        return var in self.basis

    def choose_leaving(self, entering: int, lexicographic: bool) -> int:
        """Row index of the leaving variable by the (lexico-)minimum ratio.

        Ratios are compared by cross-multiplication: ``_order`` gives the
        sign of row r's ratio minus row s's, and the common denominator
        cancels.
        """
        tied: list[int] = []
        for r, row in enumerate(self.rows):
            if row[entering] <= 0:
                continue
            if tied:
                order = self._order(r, tied[0], entering, -1)
                if order > 0:
                    continue
                if order == 0:
                    tied.append(r)
                    continue
            tied = [r]
        if not tied:
            raise UnboundedPolytopeError(
                "entering column has no positive coefficient; polytope is unbounded"
            )
        if len(tied) == 1:
            return tied[0]
        self.saw_tie = True
        if not lexicographic:
            return tied[0]
        best = tied[0]
        for r in tied[1:]:
            order = 0
            for c in self.lex_cols:
                order = self._order(r, best, entering, c)
                if order:
                    break
            if order < 0:
                best = r
        return best

    def _order(self, r: int, s: int, entering: int, col: int) -> int:
        """An integer with the sign of ``rows[r][col]/rows[r][entering] -
        rows[s][col]/rows[s][entering]``; both entering coefficients are
        positive."""
        row_r, row_s = self.rows[r], self.rows[s]
        return row_r[col] * row_s[entering] - row_s[col] * row_r[entering]

    def pivot(self, entering: int, row_index: int) -> int:
        """Bring ``entering`` into the basis on the given row; returns the
        leaving variable.

        Integer pivoting: the pivot row stays as it is, every other row
        becomes ``(v*p - f*w) // det`` (an exact division; a row with f == 0
        becomes ``v*p // det``, which is itself when p == det) and the pivot
        entry p becomes the new common denominator.
        """
        row = self.rows[row_index]
        p = row[entering]
        if p <= 0:
            raise ValueError("pivot coefficient must be positive")
        det = self.det
        for r, other in enumerate(self.rows):
            if r == row_index:
                continue
            f = other[entering]
            if f == 0:
                if p != det:
                    self.rows[r] = [v * p // det for v in other]
            else:
                self.rows[r] = [(v * p - f * w) // det for v, w in zip(other, row)]
        self.det = p
        leaving = self.basis[row_index]
        self.basis[row_index] = entering
        if any(r[-1] < 0 for r in self.rows):
            raise InvariantError("pivot broke right-hand side nonnegativity")
        return leaving

    def basic_value(self, var: int) -> Fraction:
        for r, b in enumerate(self.basis):
            if b == var:
                return Fraction(self.rows[r][-1], self.det)
        return ZERO

    def nonbasic_labels(self, nvars: int) -> LabelSet:
        basic = set(self.basis)
        return frozenset(v + 1 for v in range(nvars) if v not in basic)


def _build_tableaux(game: BimatrixGame) -> tuple[_Tableau, _Tableau]:
    """Initial integer tableaux of P (one row per column of B) and Q (one
    row per row of A).  Each row is scaled to integers and its slack
    variable by the inverse scale, so the slack keeps coefficient 1 and the
    slack basis has determinant 1.  Positive row and column scales leave the
    ratio test, its ties and the lexicographic order unchanged.
    """
    a_rows, b_cols = game.integer_payoffs
    m, n = game.m, game.n
    nvars = m + n
    p_rows = []
    for j, (scale, col) in enumerate(b_cols):
        row = list(col)
        row += [1 if k == j else 0 for k in range(n)]
        row.append(scale)
        p_rows.append(row)
    q_rows = []
    for i, (scale, entries) in enumerate(a_rows):
        row = [1 if k == i else 0 for k in range(m)]
        row += entries
        row.append(scale)
        q_rows.append(row)
    tab_p = _Tableau(p_rows, [m + j for j in range(n)], tuple(range(m, nvars)))
    tab_q = _Tableau(q_rows, list(range(m)), tuple(range(m)))
    return tab_p, tab_q


@dataclass(frozen=True)
class LhResult:
    """Outcome of one pivoting run: the equilibrium found and the path."""

    equilibrium: MixedProfile
    path: PivotPath

    @property
    def path_length(self) -> int:
        return self.path.path_length


def lh_steps(
    tableaux: tuple[_Tableau, _Tableau],
    missing_label: int,
    lexicographic: bool = True,
    expect_nondegenerate: bool = False,
):
    """Low-level pivot stream on the tableaux of ``_build_tableaux``; yields
    PivotStep records, pivots the tableaux in place and stops at the
    equilibrium.

    Cycling is only possible with the lexicographic rule disabled, so basis
    tracking is on exactly then (it holds every visited basis pair in
    memory).
    """
    tab_p, tab_q = tableaux
    m = len(tab_q.rows)
    nvars = len(tab_p.rows[0]) - 1
    if not 1 <= missing_label <= nvars:
        raise ValueError(f"missing label {missing_label} out of range 1..{nvars}")
    side = "P" if missing_label <= m else "Q"
    entering = missing_label - 1
    visited = None if lexicographic else {(frozenset(tab_p.basis), frozenset(tab_q.basis))}
    while True:
        tab = tab_p if side == "P" else tab_q
        if tab.is_basic(entering):
            raise InvariantError("entering variable is already basic")
        row = tab.choose_leaving(entering, lexicographic)
        if expect_nondegenerate and tab.saw_tie:
            raise DegenerateGameError(
                "ratio-test tie on a game expected to be nondegenerate"
            )
        dropped = entering + 1
        leaving = tab.pivot(entering, row)
        picked = leaving + 1
        if visited is not None:
            state = (frozenset(tab_p.basis), frozenset(tab_q.basis))
            if state in visited:
                raise CyclingError("pivoting revisited a basis pair")
            visited.add(state)
        vertex = (tab_p.nonbasic_labels(nvars), tab_q.nonbasic_labels(nvars))
        yield PivotStep(dropped, picked, vertex, side)
        if picked == missing_label:
            return
        entering = picked - 1
        side = "Q" if side == "P" else "P"


def lh_solve(
    game: BimatrixGame,
    missing_label: int,
    step_cap: int | None = DEFAULT_STEP_CAP,
    lexicographic: bool = True,
    expect_nondegenerate: bool = False,
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
    stream = lh_steps(tableaux, missing_label, lexicographic, expect_nondegenerate)
    steps = tuple(capped(stream, step_cap))
    x_poly = [tab_p.basic_value(i) for i in range(m)]
    y_poly = [tab_q.basic_value(m + j) for j in range(n)]
    profile = MixedProfile(simplex_scaled(x_poly), simplex_scaled(y_poly))
    return LhResult(profile, PivotPath(missing_label, start, steps))


def lh_all_labels(game: BimatrixGame, **kwargs) -> list[tuple[int, LhResult]]:
    """One pivoting run per label; equilibria found may repeat."""
    return [
        (k, lh_solve(game, k, **kwargs)) for k in range(1, game.m + game.n + 1)
    ]


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
    """Path induced on the single labeled polytope of a unit-vector game.

    Streams the product-polytope walk, keeps the moves of the first
    polytope, and translates facet m+j to its label ell(j).  Vertices are
    reported as frozensets of tight facet positions.  For missing label m+j
    the result is the single-polytope path for missing label ell(j).  The
    step cap counts the returned P steps and works as in ``lh_solve``.
    """
    m = u.m

    def translate(label: int) -> int:
        return label if label <= m else u.ell[label - m - 1]

    stream = lh_steps(_build_tableaux(u.to_bimatrix()), missing_label, expect_nondegenerate=True)
    p_steps = (
        PivotStep(translate(s.dropped), translate(s.picked), s.vertex[0], "P")
        for s in stream
        if s.system == "P"
    )
    steps = tuple(capped(p_steps, step_cap))
    target = translate(missing_label)
    if not steps or steps[-1].picked != target:
        raise InvariantError("projected path does not close with the missing label")
    return PivotPath(target, frozenset(range(1, m + 1)), steps)
