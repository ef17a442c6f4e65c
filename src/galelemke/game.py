"""Bimatrix games with exact rational payoffs.

Labels follow the usual convention: 1..m name the row player's pure
strategies, m+1..m+n the column player's.  A mixed strategy carries the
labels of its unplayed own strategies and of the opponent's pure best
responses; a profile is a Nash equilibrium exactly when the two label sets
jointly cover 1..m+n.  All arithmetic is exact; floats are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BudgetExceededError
from .linalg import scaled_to_integers
from .polytope import vertices_nonneg_form

Matrix = tuple[tuple[Fraction, ...], ...]
LabelSet = frozenset[int]
ScaledRow = tuple[int, tuple[int, ...]]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "2/3", and Fractions; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


def matrix_from(rows) -> Matrix:
    mat = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    if not mat or not mat[0]:
        raise ValueError("matrix must be nonempty")
    width = len(mat[0])
    if any(len(row) != width for row in mat):
        raise ValueError("matrix rows must all have the same length")
    return mat


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
            if any(v < 0 for v in vec):
                raise ValueError(f"{name} has a negative component")
            if sum(vec) != 1:
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
    normal form they need (see normalized_matrices) without mutating them.
    """

    a: Matrix
    b: Matrix

    def __post_init__(self):
        if len(self.a) != len(self.b) or len(self.a[0]) != len(self.b[0]):
            raise ValueError("A and B must have identical shape")
        for mat in (self.a, self.b):
            for row in mat:
                if any(not isinstance(v, (Fraction, int)) for v in row):
                    raise TypeError("payoffs must be exact rationals")

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

    # Derived payoffs are computed once per instance and kept in its
    # __dict__ (cached_property writes there directly, so this works on a
    # frozen dataclass and leaves ==, hash and repr alone).

    @cached_property
    def _normalized(self) -> tuple[Matrix, Matrix, Fraction, Fraction]:
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
        ratio, sign or comparison the exact engines make, so the tableau
        and the support systems start from these instead of Fractions.
        """
        a2, b2, _, _ = self._normalized
        return (
            tuple(scaled_to_integers(row) for row in a2),
            tuple(scaled_to_integers(col) for col in transpose(b2)),
        )


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


def normalized_matrices(game: BimatrixGame) -> tuple[Matrix, Matrix, Fraction, Fraction]:
    """Payoff matrices shifted so A and B-transpose are nonnegative with no
    zero column, plus the per-matrix shifts applied (cached on the game).

    Shifting a player's payoffs by a constant never moves an equilibrium, so
    solvers may work on the shifted copies and report results for the
    original game.  The zero-column condition keeps the derived polytopes
    bounded (columns of A, rows of B).
    """
    return game._normalized


# ---------------------------------------------------------------------------
# Labels and equilibrium verification


def _column_payoffs(b: Matrix, x) -> list[Fraction]:
    return [sum((x[i] * b[i][j] for i in range(len(b))), ZERO) for j in range(len(b[0]))]


def _row_payoffs(a: Matrix, y) -> list[Fraction]:
    return [sum((a[i][j] * y[j] for j in range(len(a[0]))), ZERO) for i in range(len(a))]


def labels_of_profile(game: BimatrixGame, profile: MixedProfile) -> tuple[LabelSet, LabelSet]:
    """Label sets of x and y: unplayed own strategies plus the opponent's
    pure best responses."""
    game.check_profile(profile)
    m = game.m
    col_pay = _column_payoffs(game.b, profile.x)
    best_col = max(col_pay)
    x_labels = {i + 1 for i, v in enumerate(profile.x) if v == 0}
    x_labels |= {m + j + 1 for j, p in enumerate(col_pay) if p == best_col}
    row_pay = _row_payoffs(game.a, profile.y)
    best_row = max(row_pay)
    y_labels = {m + j + 1 for j, v in enumerate(profile.y) if v == 0}
    y_labels |= {i + 1 for i, p in enumerate(row_pay) if p == best_row}
    return frozenset(x_labels), frozenset(y_labels)


def verify_equilibrium(game: BimatrixGame, profile: MixedProfile) -> bool:
    """True iff the two label sets jointly cover every label 1..m+n."""
    x_labels, y_labels = labels_of_profile(game, profile)
    return x_labels | y_labels == frozenset(range(1, game.m + game.n + 1))


# ---------------------------------------------------------------------------
# Polytope views.  P = {x >= 0, B'x <= 1} and Q = {Ay <= 1, y >= 0} for the
# normalized matrices; labels mark binding inequalities.


def simplex_scaled(vec) -> tuple[Fraction, ...]:
    """Divide by the coordinate sum.  The origin is not convertible."""
    total = sum(vec, ZERO)
    if total <= 0:
        raise ValueError("cannot scale the origin (or a nonpositive vector) to the simplex")
    return tuple(v / total for v in vec)


def polytope_coordinates(game: BimatrixGame, profile: MixedProfile) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Map a profile to (x, y) with B'x <= 1 and Ay <= 1 tight at best
    responses, using the normalized matrices."""
    game.check_profile(profile)
    a2, b2, _, _ = normalized_matrices(game)
    v = max(_column_payoffs(b2, profile.x))
    u = max(_row_payoffs(a2, profile.y))
    return tuple(c / v for c in profile.x), tuple(c / u for c in profile.y)


def p_vertices(game: BimatrixGame):
    """Vertices of P with their label sets: (point, labels)."""
    return _labeled_vertices(game.integer_payoffs[1], game.m, 0, game.m)


def q_vertices(game: BimatrixGame):
    """Vertices of Q with their label sets: (point, labels)."""
    return _labeled_vertices(game.integer_payoffs[0], game.n, game.m, 0)


def _labeled_vertices(int_rows, dim, coord_offset, row_offset):
    """Label tight coordinate i with coord_offset + i and tight row j with
    row_offset + j."""
    for point, tight_coords, tight_rows in vertices_nonneg_form(int_rows, dim):
        labels = {coord_offset + i for i in tight_coords} | {row_offset + j for j in tight_rows}
        yield point, frozenset(labels)


def equilibria_by_vertex_enumeration(game: BimatrixGame) -> list[MixedProfile]:
    """Equilibria via exhaustive P x Q vertex enumeration (oracle path): one
    per completely labeled vertex pair other than the origin pair."""
    full = frozenset(range(1, game.m + game.n + 1))
    qs = list(q_vertices(game))
    found = set()
    for x_point, x_labels in p_vertices(game):
        for y_point, y_labels in qs:
            if x_labels | y_labels == full and (any(x_point) or any(y_point)):
                found.add(MixedProfile(simplex_scaled(x_point), simplex_scaled(y_point)))
    return sorted(found, key=lambda p: (p.x, p.y))


def is_nondegenerate(game: BimatrixGame, max_labels: int = 20) -> bool:
    """Exact nondegeneracy check by vertex enumeration.

    True iff every vertex of P lies on exactly m binding inequalities and
    every vertex of Q on exactly n.  Refuses games with m+n beyond
    ``max_labels``; past that budget callers must rely on lexicographic
    tie-breaking instead.
    """
    if game.m + game.n > max_labels:
        raise BudgetExceededError(
            f"nondegeneracy check refused for m+n={game.m + game.n} > {max_labels}"
        )
    for _, labels in p_vertices(game):
        if len(labels) > game.m:
            return False
    for _, labels in q_vertices(game):
        if len(labels) > game.n:
            return False
    return True


# ---------------------------------------------------------------------------
# Reductions


def symmetrize(game: BimatrixGame) -> BimatrixGame:
    """The symmetric game (C, C^T) with C = [[0, A], [B^T, 0]].

    Payoffs are shifted to normal form first, so the block structure carries
    the usual correspondence: (x, y) is an equilibrium of the game iff the
    concatenation of its polytope coordinates, rescaled, is a symmetric
    equilibrium of the result.
    """
    a2, b2, _, _ = normalized_matrices(game)
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
    equilibrium: concatenate polytope coordinates and rescale."""
    x_poly, y_poly = polytope_coordinates(game, profile)
    return simplex_scaled(x_poly + y_poly)


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
    if len(c[0]) != size:
        raise ValueError("imitation games need a square matrix")
    if any(v < 0 for row in c for v in row):
        raise ValueError("matrix must be nonnegative (shift payoffs first)")
    if any(all(row[j] == 0 for row in c) for j in range(size)):
        raise ValueError("matrix must have no zero column")
    identity = tuple(
        tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size)
    )
    return BimatrixGame(identity, transpose(c))


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
        if len(self.b) != self.m or len(self.b[0]) != len(self.ell):
            raise ValueError("B must be m x len(ell)")

    @classmethod
    def of(cls, m: int, ell, b_rows) -> "UnitVectorGame":
        return cls(m, tuple(int(v) for v in ell), matrix_from(b_rows))

    @property
    def n(self) -> int:
        return len(self.ell)

    def label_classes(self) -> dict[int, tuple[int, ...]]:
        """Columns grouped by their best-response row: label -> columns (1-based)."""
        classes: dict[int, list[int]] = {i: [] for i in range(1, self.m + 1)}
        for j, lab in enumerate(self.ell):
            classes[lab].append(j + 1)
        return {k: tuple(v) for k, v in classes.items()}

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
    game = u.to_bimatrix()
    _, b2, _, _ = normalized_matrices(game)
    col_pay = _column_payoffs(b2, point)
    y = [ZERO] * u.n
    for i, weight in enumerate(point):
        if weight == 0:
            continue
        choices = [j for j in range(u.n) if u.ell[j] == i + 1 and col_pay[j] == 1]
        if not choices:
            raise ValueError("point is not completely labeled for its support")
        y[choices[0]] = ONE
    return MixedProfile(simplex_scaled(point), simplex_scaled(y))
