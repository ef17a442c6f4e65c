"""Complementary pivoting on the product of the two best-response polytopes.

The walk starts at the origin pair, drops the chosen missing label, and
alternates pivots between the two systems until that label is picked up
again, at which point the basic solution is an equilibrium.  All pivoting is
exact; the lexicographic ratio test keeps the right-hand side nonnegative
and rules out cycling even on degenerate inputs.
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
    normalized_matrices,
    simplex_scaled,
)
from .paths import PivotPath, PivotStep, capped

DEFAULT_STEP_CAP = 10_000_000

ZERO = Fraction(0)
ONE = Fraction(1)


class _Tableau:
    """One system in row dictionary form: every row holds the coefficients
    of all variables plus the right-hand side; ``basis[r]`` is the basic
    variable of row r.  Variable ids are 0-based and id v carries label v+1.
    """

    def __init__(self, rows: list[list[Fraction]], basis: list[int], lex_cols: tuple[int, ...]):
        self.rows = rows
        self.basis = basis
        self.lex_cols = lex_cols
        self.saw_tie = False

    def is_basic(self, var: int) -> bool:
        return var in self.basis

    def choose_leaving(self, entering: int, lexicographic: bool) -> int:
        """Row index of the leaving variable by the (lexico-)minimum ratio."""
        eligible = [r for r, row in enumerate(self.rows) if row[entering] > 0]
        if not eligible:
            raise UnboundedPolytopeError(
                "entering column has no positive coefficient; polytope is unbounded"
            )
        ratios = {r: self.rows[r][-1] / self.rows[r][entering] for r in eligible}
        best = min(ratios.values())
        tied = [r for r in eligible if ratios[r] == best]
        if len(tied) == 1:
            return tied[0]
        self.saw_tie = True
        if not lexicographic:
            return tied[0]

        def key(r: int):
            coeff = self.rows[r][entering]
            return tuple(self.rows[r][c] / coeff for c in self.lex_cols)

        return min(tied, key=key)

    def pivot(self, entering: int, row_index: int) -> int:
        """Bring ``entering`` into the basis on the given row; returns the
        leaving variable."""
        row = self.rows[row_index]
        coeff = row[entering]
        if coeff <= 0:
            raise ValueError("pivot coefficient must be positive")
        self.rows[row_index] = row = [v / coeff for v in row]
        for r, other in enumerate(self.rows):
            if r == row_index or other[entering] == 0:
                continue
            factor = other[entering]
            self.rows[r] = [v - factor * w for v, w in zip(other, row)]
        leaving = self.basis[row_index]
        self.basis[row_index] = entering
        if any(r[-1] < 0 for r in self.rows):
            raise InvariantError("pivot broke right-hand side nonnegativity")
        return leaving

    def basic_value(self, var: int) -> Fraction:
        for r, b in enumerate(self.basis):
            if b == var:
                return self.rows[r][-1]
        return ZERO

    def nonbasic_labels(self, nvars: int) -> LabelSet:
        basic = set(self.basis)
        return frozenset(v + 1 for v in range(nvars) if v not in basic)


def _build_tableaux(game: BimatrixGame) -> tuple[_Tableau, _Tableau]:
    a2, b2, _, _ = normalized_matrices(game)
    m, n = game.m, game.n
    nvars = m + n
    p_rows = []
    for j in range(n):
        row = [b2[i][j] for i in range(m)]
        row += [ONE if k == j else ZERO for k in range(n)]
        row.append(ONE)
        p_rows.append(row)
    q_rows = []
    for i in range(m):
        row = [ONE if k == i else ZERO for k in range(m)]
        row += [a2[i][j] for j in range(n)]
        row.append(ONE)
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


def _collapse(sequence: list) -> list:
    out = [sequence[0]]
    for item in sequence[1:]:
        if item != out[-1]:
            out.append(item)
    return out


def project_path(result: LhResult | PivotPath) -> tuple[list[LabelSet], list[LabelSet]]:
    """Vertex sequences induced on the two polytopes, as label sets.

    On a nondegenerate game both projections are simple: no vertex is left
    and visited again.
    """
    path = result.path if isinstance(result, LhResult) else result
    xs = [path.start[0]] + [step.vertex[0] for step in path.steps]
    ys = [path.start[1]] + [step.vertex[1] for step in path.steps]
    return _collapse(xs), _collapse(ys)


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
