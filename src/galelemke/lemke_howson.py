"""Complementary pivoting on the product of the two best-response polytopes.

The walk starts at the origin pair, drops the chosen missing label, and
alternates pivots between the two systems until that label is picked up
again, at which point the basic solution is an equilibrium.  On a
unit-vector game the Q moves are forced by the labels, so that walk pivots
P alone.  Both walks run ``paths.walk``, the label-forced loop, with a
pivot step and a mask decoder of this module, and ``path_to_csv`` writes
a product path in the x/s/r/y names of its variables.  Each system is a
``polytope.Dictionary``, numbered as the vertex enumerator numbers it (in
Q, y_j is variable j-1 and the slack of row i of A is n+i-1), and every
pivot is a fraction-free Bareiss step, as in the integer pivoting of
lrsnash (Avis, Rosenberg, Savani and von Stengel 2010).  A walk starts at
``Dictionary.walk_origin``, which keeps only the coordinate rows of a
system with at least twice as many rows as coordinates, such as P of an
m x 3m unit-vector game, and takes every pivot through
``Dictionary.enter``, which picks the leaving row and checks the pivot.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

from .errors import DegenerateGameError
from .game import BimatrixGame, LabelSet, MixedProfile, UnitVectorGame, simplex_scaled
from .paths import DEFAULT_STEP_CAP, PivotPath, PivotStep, walk
from .polytope import Dictionary


@dataclass(frozen=True)
class LhResult:
    """Outcome of one pivoting run: the equilibrium found and the path."""

    equilibrium: MixedProfile
    path: PivotPath

    @property
    def path_length(self) -> int:
        return self.path.path_length


def tight_set(names, bits: int) -> frozenset:
    """The set of ``names[p]`` over the bits p that are set in ``bits``."""
    return frozenset(names[p] for p in range(len(names)) if bits >> p & 1)


def _label_sets(labels: list[int], bits: int) -> tuple[LabelSet, LabelSet]:
    """The P and Q label sets of a product walk's mask."""
    nvars = len(labels) // 2
    return tight_set(labels[:nvars], bits), tight_set(labels[nvars:], bits >> nvars)


def lh_path(dicts: list[Dictionary], missing_label: int, step_cap: int) -> PivotPath:
    """The walk from ``dicts``, the dictionaries ``[P, Q]`` of a game, for
    the missing label: it puts each pivoted dictionary back into the list
    and stops at a completely labeled pair or at the cap, as in
    ``lh_solve``.  The path's vertices are pairs of P and Q label sets.

    The walk is ``paths.walk``: position v is P's variable v and
    position m+n+v Q's, and the tight positions are the cobasic ones, so the
    walk starts at the cobases of ``dicts``, wherever they are.  The
    lexicographic rule keeps each label but the missing one on two tight
    positions, one per system, so P and Q alternate.
    """
    m, n = len(dicts[0].cobasis), len(dicts[1].cobasis)
    nvars = m + n
    # P: x_1..x_m, then the slacks of B's columns; Q: y_1..y_n, then the slacks of A's rows
    labels = [*range(1, nvars + 1), *range(m + 1, nvars + 1), *range(1, m + 1)]
    start = sum(1 << v for v in dicts[0].cobasis) | sum(1 << nvars + v for v in dicts[1].cobasis)

    def step(bits: int, p: int) -> int:
        side, base = (1, nvars) if p >= nvars else (0, 0)
        dicts[side], leaving, _ = dicts[side].enter(p - base)
        return base + leaving

    steps: list[PivotStep] = []
    walk(labels, start, missing_label, step, step_cap, steps)
    return PivotPath(missing_label, start, tuple(steps), partial(_label_sets, labels), ((1 << nvars) - 1) << nvars)


def _slack_dictionaries(game: BimatrixGame) -> list[Dictionary]:
    """The ``[P, Q]`` dictionaries at the origin, each keeping the rows
    ``Dictionary.walk_origin`` picks for its shape."""
    a_rows, b_cols = game.integer_payoffs
    return [Dictionary.walk_origin(b_cols, game.m), Dictionary.walk_origin(a_rows, game.n)]


def lh_solve(game: BimatrixGame, missing_label: int, step_cap: int = DEFAULT_STEP_CAP) -> LhResult:
    """Run the pivoting walk for one missing label and return the
    equilibrium it terminates at, with the full path record.

    The path may take exactly ``step_cap`` pivots of the product walk (P
    and Q moves both count); a longer one raises StepCapExceededError with
    ``steps_taken == step_cap`` before pivot ``step_cap + 1`` is computed.
    """
    dicts = _slack_dictionaries(game)
    path = lh_path(dicts, missing_label, step_cap)
    profile = MixedProfile(*(simplex_scaled(d.scaled_point()) for d in dicts))
    return LhResult(profile, path)


def lh_all_labels(game: BimatrixGame, **kwargs) -> list[tuple[int, LhResult]]:
    """One pivoting run per label; equilibria found may repeat."""
    return [(k, lh_solve(game, k, **kwargs)) for k in range(1, game.m + game.n + 1)]


def project_path(result: LhResult) -> tuple[list[LabelSet], list[LabelSet]]:
    """Vertex sequences induced on the two polytopes, as label sets.

    Each side's sequence is its start and the vertex after each of its own
    pivots: a pivot always changes the label set of the side that moved and
    never the other side's, so a step is replayed, not decoded.  On a
    nondegenerate game both projections are simple: no vertex is left and
    visited again.
    """
    path = result.path
    seqs = [[labels] for labels in path.start]
    for step, side in zip(path.steps, path.sides()):
        seq = seqs[side == "Q"]
        seq.append(seq[-1] - {step.dropped} | {step.picked})
    return seqs[0], seqs[1]


def lemke_path_on_unit_vector_game(
    u: UnitVectorGame, missing_label: int, step_cap: int = DEFAULT_STEP_CAP
) -> PivotPath:
    """Path induced on the single labeled polytope of a unit-vector game,
    with vertices as frozensets of tight facet positions.

    Only P pivots.  Row i of A holds just the columns of label class i, so
    Q is a product of simplices and never ties, and its moves are forced:
    after P picks up a facet with label l, the product walk drops the other
    tight facet of P with label l (McLennan and Tourky 2010).  So P walks
    by the rule of ``paths.walk``, and a tie in P's ratio test
    raises DegenerateGameError.  Missing label m+j walks the path of label
    ell(j).  The step cap counts P pivots and works as in ``lh_solve``.
    """
    m = u.m
    labels = (*range(1, m + 1), *u.ell)  # the label of each facet position
    if not 1 <= missing_label <= len(labels):
        raise ValueError(f"missing label {missing_label} out of range 1..{len(labels)}")
    target = labels[missing_label - 1]
    d = Dictionary.walk_origin(u.to_bimatrix().integer_payoffs[1], m)

    def step(bits: int, p: int) -> int:
        nonlocal d
        d, q, tied = d.enter(p)
        if tied:
            raise DegenerateGameError("ratio-test tie on a game expected to be nondegenerate")
        return q

    steps: list[PivotStep] = []
    walk(labels, (1 << m) - 1, target, step, step_cap, steps)
    return PivotPath(target, (1 << m) - 1, tuple(steps), partial(tight_set, range(1, len(labels) + 1)))


def path_to_csv(path: PivotPath, out, m: int, n: int) -> None:
    """Dump a product-polytope path of an m x n game as CSV: step,
    dropped_label, picked_label, polytope, basis.

    The basis is that of the side that moved: the variables whose labels
    are not in its label set, x_i and s_j in P, r_i and y_j in Q.
    """
    writer = csv.writer(out)
    writer.writerow(["step", "dropped_label", "picked_label", "polytope", "basis"])
    rows = zip(path.steps, path.vertices()[1:], path.sides())
    for idx, (step, vertex, system) in enumerate(rows, start=1):
        side = "PQ".index(system)
        labels, (low, high) = vertex[side], ("xs", "ry")[side]
        basis = [f"{low}{k}" if k <= m else f"{high}{k - m}" for k in range(1, m + n + 1) if k not in labels]
        writer.writerow([idx, step.dropped, step.picked, system, ";".join(basis)])
