"""Bimatrix games with exact rational payoffs.

Labels follow the usual convention: 1..m name the row player's pure
strategies, m+1..m+n the column player's.  A mixed strategy carries the
labels of its unplayed own strategies and of the opponent's pure best
responses; a profile is a Nash equilibrium exactly when the two label sets
jointly cover 1..m+n.  All arithmetic is exact; floats are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, mul

from .errors import BudgetExceededError
from .linalg import scaled_to_integers
from .polytope import feasible_bases, vertices_nonneg_form

Matrix = tuple[tuple[Fraction, ...], ...]
LabelSet = frozenset[int]
ScaledRow = tuple[int, tuple[int, ...]]

ZERO = Fraction(0)
ONE = Fraction(1)

NONDEGENERACY_MAX_LABELS = 20

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings "p" or "p/q" (ASCII digits, a
    minus sign only on p, q > 0); floats are refused.  Text has no exponent,
    so a value grows only with its length, which ``int`` bounds."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not (match := _RATIONAL.fullmatch(value)):
            raise ValueError(f"bad rational {value!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


def matrix_from(rows) -> Matrix:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def _shape(mat) -> tuple[int, int]:
    """``(rows, columns)`` of a nonempty rectangular matrix of exact rationals."""
    if not mat or not mat[0]:
        raise ValueError("matrix must be nonempty")
    for row in mat:
        if len(row) != len(mat[0]):
            raise ValueError("matrix rows must all have the same length")
        if any(not isinstance(v, (Fraction, int)) for v in row):
            raise TypeError("payoffs must be exact rationals")
    return len(mat), len(mat[0])


def transpose(mat: Matrix) -> Matrix:
    return tuple(tuple(row[j] for row in mat) for j in range(len(mat[0])))


@dataclass(frozen=True)
class MixedProfile:
    """A pair of mixed strategies in simplex coordinates (components sum to 1)."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        for name, vec in (("x", self.x), ("y", self.y)):
            if not vec:
                raise ValueError(f"{name} must be nonempty")
            if any(not isinstance(v, (Fraction, int)) for v in vec):
                raise TypeError(f"{name} must hold exact rationals")
            scale, ints = scaled_to_integers(vec)
            if min(ints) < 0:
                raise ValueError(f"{name} has a negative component")
            if sum(ints) != scale:
                raise ValueError(f"{name} must sum to 1, got {sum(vec)}")

    @classmethod
    def of(cls, x, y) -> "MixedProfile":
        return cls(tuple(as_fraction(v) for v in x), tuple(as_fraction(v) for v in y))

    def support(self) -> tuple[frozenset[int], frozenset[int]]:
        """1-based supports of the two strategies."""
        return (
            frozenset(i + 1 for i, v in enumerate(self.x) if v > 0),
            frozenset(j + 1 for j, v in enumerate(self.y) if v > 0),
        )


@dataclass(frozen=True)
class BimatrixGame:
    """An m x n bimatrix game (A for the row player, B for the column player).

    The matrices are stored exactly as given; solvers shift payoffs into the
    normal form they need (see ``normalized``) without mutating them.
    """

    a: Matrix
    b: Matrix

    def __post_init__(self):
        if _shape(self.a) != _shape(self.b):
            raise ValueError("A and B must have identical shape")

    @classmethod
    def from_rows(cls, a_rows, b_rows) -> "BimatrixGame":
        return cls(matrix_from(a_rows), matrix_from(b_rows))

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0])

    def check_profile(self, profile: MixedProfile) -> None:
        if len(profile.x) != self.m or len(profile.y) != self.n:
            raise ValueError(
                f"profile dimensions {len(profile.x)}x{len(profile.y)} do not "
                f"match game {self.m}x{self.n}"
            )

    # Derived payoffs and the vertex tables are computed once per instance
    # and kept in its __dict__ (cached_property writes there directly, so
    # this works on a frozen dataclass and leaves ==, hash and repr alone).

    @cached_property
    def normalized(self) -> tuple[Matrix, Matrix, Fraction, Fraction]:
        """Payoff matrices shifted so A and B-transpose are nonnegative with
        no zero column, plus the per-matrix shifts applied.

        Shifting a player's payoffs by a constant never moves an equilibrium,
        so solvers may work on the shifted copies and report results for the
        original game.  The zero-column condition keeps the derived polytopes
        bounded (columns of A, rows of B).
        """
        a_cols = [tuple(row[j] for row in self.a) for j in range(self.n)]
        shift_a = _shift_amount(self.a, a_cols)
        shift_b = _shift_amount(self.b, self.b)
        return _shifted(self.a, shift_a), _shifted(self.b, shift_b), shift_a, shift_b

    @cached_property
    def integer_payoffs(self) -> tuple[tuple[ScaledRow, ...], tuple[ScaledRow, ...]]:
        """Rows of the normalized A and columns of the normalized B, each
        multiplied by the lcm of its denominators: ``(a_rows, b_cols)`` of
        ``(scale, integers)`` pairs.

        A positive scale of a whole row of A (column of B) changes no
        ratio, sign or comparison the exact engines make, so the tableau,
        the support systems and the label cover start from these.
        """
        a2, b2, _, _ = self.normalized
        return (
            tuple(scaled_to_integers(row) for row in a2),
            tuple(scaled_to_integers(col) for col in transpose(b2)),
        )

    @cached_property
    def _dominance(self):
        """``dominance_masks`` of ``a_rows`` and of ``b_cols``, built at
        the first support guess on this game."""
        return tuple(map(dominance_masks, self.integer_payoffs))

    @cached_property
    def _vertices(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """P's and Q's vertices, ``Dictionary.tight`` mask -> point times det of the
        first basis met: one walk per polytope for both readers."""
        tables = ({}, {})
        for table, int_rows, dim in zip(tables, self.integer_payoffs[::-1], (self.m, self.n)):
            for d in feasible_bases(int_rows, dim):
                if (tight := d.tight()) not in table:
                    table[tight] = d.scaled_point()
        return tables


def dominance_masks(scaled):
    """``(nonzero, beaten_by)`` for the ``(scale, integers)`` vectors of
    ``integer_payoffs``, as bit masks with bit j for column j (1-based):
    ``nonzero[i]`` holds the columns where vector i+1 is nonzero, and
    ``beaten_by[i]`` one ``(lt, gt)`` for each vector that is above vector
    i+1 on some column, with the columns where it is below and above.
    Payoffs ``integers / scale`` are compared by cross-multiplication."""
    nonzero = tuple(sum(1 << j for j, v in enumerate(row, start=1) if v) for _, row in scaled)
    beaten_by = []
    for scale_i, row_i in scaled:
        pairs = []
        for scale_k, row_k in scaled:
            lt = gt = 0
            for j, (v, w) in enumerate(zip(row_i, row_k), start=1):
                diff = w * scale_i - v * scale_k
                if diff < 0:
                    lt |= 1 << j
                elif diff > 0:
                    gt |= 1 << j
            if gt:
                pairs.append((lt, gt))
        beaten_by.append(tuple(pairs))
    return nonzero, tuple(beaten_by)


def _shift_amount(mat: Matrix, vectors) -> Fraction:
    """Shift making all entries positive, or 0 if the matrix already has
    nonnegative entries and every vector in `vectors` a positive one."""
    entries = [v for row in mat for v in row]
    lowest = min(entries)
    if lowest >= 0 and all(any(v > 0 for v in vec) for vec in vectors):
        return ZERO
    return ONE - lowest


def _shifted(mat: Matrix, amount: Fraction) -> Matrix:
    if amount == 0:
        return mat
    return tuple(tuple(v + amount for v in row) for row in mat)


# ---------------------------------------------------------------------------
# Labels and equilibrium verification


def _payoffs(scaled, weights) -> list[tuple[int, int]]:
    """``(v, den)`` with den > 0 for each ``(scale, integers)`` vector of
    ``integer_payoffs``: its payoff v / den against rational ``weights``."""
    d, ints = scaled_to_integers(weights)
    return [(sum(map(mul, entries, ints)), d * scale) for scale, entries in scaled]


def _best_responses(payoffs) -> list[int]:
    """0-based indices of the largest ``v / den`` among ``payoffs``,
    compared by cross-multiplication, as ``support._beaten`` does."""
    best: list[int] = []
    for k, (v, den) in enumerate(payoffs):
        if not best or v * best_den > best_v * den:
            best, best_v, best_den = [k], v, den
        elif v * best_den == best_v * den:
            best.append(k)
    return best


def labels_of_profile(game: BimatrixGame, profile: MixedProfile) -> tuple[LabelSet, LabelSet]:
    """Label sets of x and y: unplayed own strategies plus the opponent's
    pure best responses, found on ``integer_payoffs`` (a profile sums to 1,
    so normalizing shifts all of a player's payoffs by one constant)."""
    game.check_profile(profile)
    m = game.m
    a_rows, b_cols = game.integer_payoffs
    x_labels = {i + 1 for i, v in enumerate(profile.x) if not v}
    x_labels.update(m + j + 1 for j in _best_responses(_payoffs(b_cols, profile.x)))
    y_labels = {m + j + 1 for j, v in enumerate(profile.y) if not v}
    y_labels.update(i + 1 for i in _best_responses(_payoffs(a_rows, profile.y)))
    return frozenset(x_labels), frozenset(y_labels)


def verify_equilibrium(game: BimatrixGame, profile: MixedProfile) -> bool:
    """True iff the two label sets jointly cover every label 1..m+n."""
    x_labels, y_labels = labels_of_profile(game, profile)
    return x_labels | y_labels == frozenset(range(1, game.m + game.n + 1))


# ---------------------------------------------------------------------------
# Polytope views.  P = {x >= 0, B'x <= 1} and Q = {Ay <= 1, y >= 0} for the
# normalized matrices; labels mark binding inequalities.


def simplex_scaled(vec) -> tuple[Fraction, ...]:
    """Divide ints or Fractions by their sum, one Fraction per coordinate.
    The origin is not convertible."""
    total = sum(vec)
    if total <= 0:
        raise ValueError("cannot scale the origin (or a nonpositive vector) to the simplex")
    return tuple(Fraction(v, total) for v in vec)


def p_vertices(game: BimatrixGame):
    """Vertices of P with their label sets: (point, labels)."""
    return vertices_nonneg_form(game.integer_payoffs[1], game.m)


def q_vertices(game: BimatrixGame):
    """Vertices of Q with their label sets: (point, labels).  Tight
    coordinate v is label m + v and tight row i label i."""
    m, n = game.m, game.n
    for point, tight in vertices_nonneg_form(game.integer_payoffs[0], n):
        yield point, frozenset(m + v if v <= n else v - n for v in tight)


def equilibria_by_vertex_enumeration(game: BimatrixGame) -> list[MixedProfile]:
    """Equilibria via exhaustive P x Q vertex enumeration (oracle path): one
    per completely labeled vertex pair other than the origin pair.

    Pairs are read off the game's vertex tables as label masks, bit l for
    label l + 1: P's tight masks, and Q's with y_j moved to m + j and row i
    to i.  Q's vertices are indexed by label, and each P vertex meets only
    those that hold every label it misses (one at least: the origin has no
    row label); ``simplex_scaled`` cancels det.
    """
    m, n = game.m, game.n
    p_table, q_table = game._vertices
    qs = list(q_table.values())
    q_labels = [(t & (1 << n) - 1) << m | t >> n for t in q_table]
    holders = [sum(1 << k for k, t in enumerate(q_labels) if t >> label & 1) for label in range(m + n)]
    found = set()
    for s, x_point in p_table.items():
        both = reduce(and_, (holders[label] for label in range(m + n) if not s >> label & 1))
        while both:
            k = both.bit_length() - 1
            both ^= 1 << k
            if any(x_point) or any(qs[k]):
                found.add(MixedProfile(simplex_scaled(x_point), simplex_scaled(qs[k])))
    return sorted(found, key=lambda p: (p.x, p.y))


def is_nondegenerate(game: BimatrixGame) -> bool:
    """Exact nondegeneracy check on the game's vertex tables of P and Q.

    True iff every vertex of P lies on exactly m binding inequalities and
    every vertex of Q on exactly n (no feasible basis has a zero right-hand
    side).  Refuses m+n beyond NONDEGENERACY_MAX_LABELS; past that budget
    callers must rely on lexicographic tie-breaking instead.
    """
    if game.m + game.n > NONDEGENERACY_MAX_LABELS:
        raise BudgetExceededError(
            f"nondegeneracy check refused for m+n={game.m + game.n} > {NONDEGENERACY_MAX_LABELS}"
        )
    return all(t.bit_count() == dim for table, dim in zip(game._vertices, (game.m, game.n)) for t in table)


# ---------------------------------------------------------------------------
# Reductions


def symmetrize(game: BimatrixGame) -> BimatrixGame:
    """The symmetric game (C, C^T) with C = [[0, A], [B^T, 0]].

    Payoffs are shifted to normal form first, so the block structure carries
    the usual correspondence: (x, y) is an equilibrium of the game iff the
    concatenation of its polytope coordinates, rescaled, is a symmetric
    equilibrium of the result.
    """
    a2, b2, _, _ = game.normalized
    m, n = game.m, game.n
    size = m + n
    bt = transpose(b2)
    c = []
    for i in range(size):
        if i < m:
            row = (ZERO,) * m + a2[i]
        else:
            row = bt[i - m] + (ZERO,) * n
        c.append(row)
    c_mat = tuple(c)
    return BimatrixGame(c_mat, transpose(c_mat))


def symmetric_profile(game: BimatrixGame, profile: MixedProfile) -> tuple[Fraction, ...]:
    """The symmetric mixed strategy of symmetrize(game) induced by an
    equilibrium: concatenate the polytope coordinates (x with B'x <= 1 and
    y with Ay <= 1, tight at best responses) and rescale."""
    game.check_profile(profile)
    a_rows, b_cols = game.integer_payoffs
    v = max(Fraction(*p) for p in _payoffs(b_cols, profile.x))
    u = max(Fraction(*p) for p in _payoffs(a_rows, profile.y))
    return simplex_scaled(tuple(c / v for c in profile.x) + tuple(c / u for c in profile.y))


def split_symmetric_profile(game: BimatrixGame, z) -> MixedProfile:
    """Recover a profile of the original game from a symmetric equilibrium
    strategy z of symmetrize(game)."""
    z = tuple(as_fraction(v) for v in z)
    if len(z) != game.m + game.n:
        raise ValueError("z must have length m+n")
    return MixedProfile(simplex_scaled(z[: game.m]), simplex_scaled(z[game.m:]))


def imitation_game(c_rows) -> BimatrixGame:
    """The game (I, C^T) whose equilibria project to symmetric equilibria
    of (C, C^T).  C must be square, nonnegative, with no zero column."""
    c = matrix_from(c_rows)
    size = len(c)
    if _shape(c)[1] != size:
        raise ValueError("imitation games need a square matrix")
    if any(v < 0 for row in c for v in row):
        raise ValueError("matrix must be nonnegative (shift payoffs first)")
    if any(all(row[j] == 0 for row in c) for j in range(size)):
        raise ValueError("matrix must have no zero column")
    return UnitVectorGame(size, tuple(range(1, size + 1)), transpose(c)).to_bimatrix()


# ---------------------------------------------------------------------------
# Unit-vector games


@dataclass(frozen=True)
class UnitVectorGame:
    """A game where column j of A is the unit vector for row ell(j).

    The label string ell plus the matrix B fully specify the game; its
    equilibria correspond to the completely labeled points of the single
    polytope {x >= 0, B^T x <= 1} whose last n facets carry labels ell(j).
    """

    m: int
    ell: tuple[int, ...]
    b: Matrix

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if any(not 1 <= v <= self.m for v in self.ell):
            raise ValueError("labels must lie in 1..m")
        if _shape(self.b) != (self.m, len(self.ell)):
            raise ValueError("B must be m x len(ell)")

    @classmethod
    def of(cls, m: int, ell, b_rows) -> "UnitVectorGame":
        return cls(m, tuple(int(v) for v in ell), matrix_from(b_rows))

    @property
    def n(self) -> int:
        return len(self.ell)

    def to_bimatrix(self) -> BimatrixGame:
        """The bimatrix game (A, B).  It is built once per instance, so
        every caller shares its cached payoffs."""
        return self._bimatrix

    @cached_property
    def _bimatrix(self) -> BimatrixGame:
        a = tuple(
            tuple(ONE if self.ell[j] == i + 1 else ZERO for j in range(self.n))
            for i in range(self.m)
        )
        return BimatrixGame(a, self.b)


def unit_vector_completely_labeled_points(u: UnitVectorGame):
    """Nonzero completely labeled points of the labeled polytope, as
    (point, facets): facet i <= m keeps label i, facet m+j carries ell(j)."""
    full = frozenset(range(1, u.m + 1))
    for point, facets in p_vertices(u.to_bimatrix()):
        labels = {f if f <= u.m else u.ell[f - u.m - 1] for f in facets}
        if labels == full and any(point):
            yield point, facets


def equilibrium_from_labeled_point(u: UnitVectorGame, point) -> MixedProfile:
    """Build the equilibrium for a completely labeled point x != 0: pick, for
    each played row i, one binding column with label i and play it."""
    if len(point) != u.m:
        raise ValueError("point must have length m")
    binding = [v == den for v, den in _payoffs(u.to_bimatrix().integer_payoffs[1], point)]
    y = [ZERO] * u.n
    for i, weight in enumerate(point):
        if weight == 0:
            continue
        choices = [j for j in range(u.n) if u.ell[j] == i + 1 and binding[j]]
        if not choices:
            raise ValueError("point is not completely labeled for its support")
        y[choices[0]] = ONE
    return MixedProfile(simplex_scaled(point), simplex_scaled(y))
