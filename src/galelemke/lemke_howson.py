"""Complementary pivoting on the product of the two best-response polytopes.

The walk starts at the origin pair, drops the chosen missing label, and
alternates pivots between the two systems until that label is picked up
again, at which point the basic solution is an equilibrium.  On a
unit-vector game the Q moves are forced by the labels, so that walk pivots
P alone.  Both walks run on the label-forced loop ``gale._lemke_pivots``,
which also stops them at their step cap.  Each system is a
``polytope.Dictionary``, numbered as the vertex enumerator numbers it (in
Q, y_j is variable j-1 and the slack of row i of A is n+i-1), and every
pivot is a fraction-free Bareiss step, as in the integer pivoting of
lrsnash (Avis, Rosenberg, Savani and von Stengel 2010).  Ratio-test ties
are always broken lexicographically, which keeps the right-hand side
nonnegative and rules out cycling even on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from .errors import DegenerateGameError, InvariantError
from .gale import _lemke_pivots
from .game import BimatrixGame, LabelSet, MixedProfile, UnitVectorGame, simplex_scaled
from .linalg import ratio_rows
from .paths import PivotPath, PivotStep
from .polytope import Dictionary

DEFAULT_STEP_CAP = 10_000_000


def _leaving_row(d: Dictionary, c: int) -> tuple[int, bool]:
    """Row of the leaving variable when column c enters, by the
    lexico-minimum ratio, and whether the ratio test tied.

    ``linalg.ratio_rows`` gives the rows at the minimum ratio.  A tie goes
    to the lexicographic rule: the same test over the tied rows, on each
    column of the starting slack basis in turn, until one row is left.
    Those columns hold the inverse of the basis, whose rows are
    independent, so one always is.
    ``BimatrixGame.normalized`` gives every column of A and every row of B
    a positive entry, so P and Q are bounded and every entering column has
    a positive entry.
    """
    tied = ratio_rows(d.rows, c)
    if len(tied) == 1:
        return tied[0], False
    if not tied:
        raise InvariantError("entering column has no positive coefficient")
    rows, basis, cobasis, det = d
    for var in range(len(cobasis), len(cobasis) + len(rows)):
        if var in cobasis:
            other = cobasis.index(var)
            lex = [[rows[r][c], rows[r][other]] for r in tied]
        else:
            # a basic column is det > 0 in its own row and 0 elsewhere
            home = basis.index(var)
            lex = [[rows[r][c], det * (r == home)] for r in tied]
        tied = [tied[i] for i in ratio_rows(lex, 0)]
        if len(tied) == 1:
            break
    return tied[0], True


def _pivot(d: Dictionary, entering: int) -> tuple[Dictionary, int, bool]:
    """Pivot ``entering`` in on the row ``_leaving_row`` picks; returns the
    new dictionary, the leaving variable and whether the ratio test tied."""
    try:
        c = d.cobasis.index(entering)
    except ValueError:
        raise InvariantError(f"entering variable {entering} is already basic") from None
    r, tied = _leaving_row(d, c)
    new = d.pivoted(r, c)
    if any(row[-1] < 0 for row in new.rows):
        raise InvariantError("pivot broke right-hand side nonnegativity")
    return new, d.basis[r], tied


@dataclass(frozen=True)
class LhResult:
    """Outcome of one pivoting run: the equilibrium found and the path."""

    equilibrium: MixedProfile
    path: PivotPath

    @property
    def path_length(self) -> int:
        return self.path.path_length


def lh_steps(dicts: list[Dictionary], missing_label: int, step_cap: int | None):
    """Pivot stream on ``dicts``, the slack dictionaries ``[P, Q]`` of a
    game: yields PivotStep records, puts each pivoted dictionary back into
    the list and stops at the equilibrium or at the cap, as in ``lh_solve``.

    The walk is ``gale._lemke_pivots``: position v is P's variable v and
    position m+n+v Q's, and the tight positions are the cobasic ones.  The
    lexicographic rule keeps each label but the missing one on two tight
    positions, one per system, so P and Q alternate.  The walk keeps the
    two label sets itself: a pivot replaces only the moved side's set, so
    consecutive steps share the other side's.
    """
    n, m = len(dicts[0].rows), len(dicts[1].rows)
    nvars = m + n
    # P: x_1..x_m, then the slacks of B's columns; Q: y_1..y_n, then the slacks of A's rows
    labels = [*range(1, nvars + 1), *range(m + 1, nvars + 1), *range(1, m + 1)]
    start = (1 << m) - 1 | ((1 << n) - 1) << nvars  # x cobasic in P, y in Q

    def step(bits: int, p: int) -> int:
        side, base = (1, nvars) if p >= nvars else (0, 0)
        dicts[side], leaving, _ = _pivot(dicts[side], p - base)
        return base + leaving

    pivots = _lemke_pivots(labels, start, missing_label, step, step_cap)
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
    StepCapExceededError with ``steps_taken == step_cap`` before pivot
    ``step_cap + 1`` is computed.
    """
    m, n = game.m, game.n
    start = (frozenset(range(1, m + 1)), frozenset(range(m + 1, m + n + 1)))
    a_rows, b_cols = game.integer_payoffs
    dicts = [Dictionary.slack(b_cols, m), Dictionary.slack(a_rows, n)]
    steps = tuple(lh_steps(dicts, missing_label, step_cap))
    profile = MixedProfile(*(simplex_scaled(d.scaled_point()) for d in dicts))
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
    d = Dictionary.slack(u.to_bimatrix().integer_payoffs[1], m)

    def step(bits: int, p: int) -> int:
        nonlocal d
        d, q, tied = _pivot(d, p)
        if tied:
            raise DegenerateGameError("ratio-test tie on a game expected to be nondegenerate")
        return q

    pivots = _lemke_pivots(labels, (1 << m) - 1, target, step, step_cap)
    # each pivot is yielded right after ``step`` rebinds d, so d.cobasis is its vertex
    steps = tuple(PivotStep(dk, pk, frozenset(v + 1 for v in d.cobasis), "P") for _, dk, pk in pivots)
    return PivotPath(target, frozenset(range(1, m + 1)), steps)
