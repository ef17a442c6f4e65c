"""Dual cyclic polytopes with exact rational coordinates.

The polytope in dimension m with f facets is cut out by the inequalities
(mu(t_j) - mean)^T x <= 1 where mu(t) = (t, t^2, ..., t^m) and the mean is
taken over the f curve points; any strictly increasing parameters t work.
Its vertex-facet incidences are exactly the evenness bitstrings, which the
tests cross-check against the combinatorial enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import BudgetExceededError
from .game import Matrix, as_fraction, transpose
from .gale import GaleString
from .linalg import dot, scaled_to_integers, solve_square
from .polytope import vertices_nonneg_form

ONE = Fraction(1)
ZERO = Fraction(0)


@dataclass(frozen=True)
class CyclicPolytopeGeometry:
    """Inequality description {x : rows @ x <= 1} of the dual cyclic polytope."""

    m: int
    t: tuple[Fraction, ...]
    rows: Matrix

    @property
    def f(self) -> int:
        return len(self.t)

    @property
    def n(self) -> int:
        return self.f - self.m


def cyclic_geometry(m: int, f: int, t=None) -> CyclicPolytopeGeometry:
    """Build the dual cyclic polytope for dimension m and f facets.

    Default curve parameters are 1, 2, ..., f (the smallest exact choice);
    custom parameters must be strictly increasing.
    """
    if m % 2 != 0 or m < 2:
        raise ValueError("dimension must be even and at least 2")
    if f <= m:
        raise ValueError("need more facets than dimensions")
    if t is None:
        params = tuple(Fraction(j) for j in range(1, f + 1))
    else:
        params = tuple(as_fraction(v) for v in t)
        if len(params) != f:
            raise ValueError(f"expected {f} parameters, got {len(params)}")
        if any(params[i] >= params[i + 1] for i in range(f - 1)):
            raise ValueError("curve parameters must be strictly increasing")
    points = [tuple(tj**k for k in range(1, m + 1)) for tj in params]
    mean = tuple(sum(p[k] for p in points) / f for k in range(m))
    rows = tuple(tuple(p[k] - mean[k] for k in range(m)) for p in points)
    return CyclicPolytopeGeometry(m, params, rows)


def geometry_vertex_strings(geom: CyclicPolytopeGeometry, budget: int = 200_000):
    """Brute-force vertex enumeration, yielding (point, incidence string).

    Runs the vertex enumerator on ``to_canonical_form(geom)``, so each point
    is in canonical coordinates (``CanonicalForm.incidence_of`` maps it back
    to its string): tight coordinate i is facet i, tight row j facet m+j.
    Oracle-grade: it solves all C(f, m) square subsystems of facets; use
    small sizes only.
    """
    if comb(geom.f, geom.m) > budget:
        raise BudgetExceededError(
            f"vertex enumeration over C({geom.f},{geom.m}) subsets exceeds budget"
        )
    m = geom.m
    int_rows = [scaled_to_integers(col) for col in transpose(to_canonical_form(geom).b)]
    for point, tight_coords, tight_rows in vertices_nonneg_form(int_rows, m):
        positions = [*tight_coords, *(m + j for j in tight_rows)]
        yield point, GaleString.from_positions(geom.f, positions)


@dataclass(frozen=True)
class CanonicalForm:
    """The polytope re-coordinatized so the first m facets read x_i >= 0.

    The vertex lying on the first m facets maps to the origin and the
    remaining facets become the rows of B^T x <= 1; facet incidences are
    preserved bit for bit, so ``b`` doubles as the payoff matrix of the
    corresponding unit-vector game (possibly needing a payoff shift).
    """

    geometry: CyclicPolytopeGeometry
    b: Matrix

    @property
    def m(self) -> int:
        return self.geometry.m

    @property
    def n(self) -> int:
        return self.geometry.n

    def vertex_of(self, s: GaleString) -> tuple[Fraction, ...]:
        """Canonical coordinates of the vertex with the given incidence."""
        if s.f != self.geometry.f or s.m != self.m:
            raise ValueError("incidence string does not match this polytope")
        rows = []
        rhs = []
        for p in s.ones():
            if p <= self.m:
                rows.append([ONE if i == p - 1 else ZERO for i in range(self.m)])
                rhs.append(ZERO)
            else:
                j = p - self.m - 1
                rows.append([self.b[i][j] for i in range(self.m)])
                rhs.append(ONE)
        sol = solve_square(rows, rhs)
        if sol is None:
            raise ValueError(f"{s} does not determine a vertex")
        return tuple(sol)

    def incidence_of(self, point) -> GaleString:
        """Tight-facet bitstring of a point in canonical coordinates."""
        point = tuple(as_fraction(v) for v in point)
        positions = [p for p in range(1, self.m + 1) if point[p - 1] == 0]
        for j in range(self.n):
            if dot((self.b[i][j] for i in range(self.m)), point) == 1:
                positions.append(self.m + j + 1)
        return GaleString.from_positions(self.geometry.f, positions)


def to_canonical_form(geom: CyclicPolytopeGeometry) -> CanonicalForm:
    """Affine change of coordinates sending the vertex on the first m facets
    to the origin and those facets to the coordinate hyperplanes; the last n
    inequalities are normalized to right-hand side 1.

    With G the first m facet normals, x = v - G^-1 z where G v = 1; a later
    facet g^T x <= 1 becomes -w^T z <= 1 - g^T v with G^T w = g, and
    g^T v = w^T 1, so each facet costs one exact solve.
    """
    leading_t = transpose(geom.rows[: geom.m])
    columns = []
    for g in geom.rows[geom.m:]:
        w = solve_square(leading_t, g)
        if w is None:
            raise ValueError("the first m facet normals are linearly dependent")
        slack = ONE - sum(w)
        if slack <= 0:
            raise ValueError("base vertex unexpectedly lies on a later facet")
        columns.append(tuple(-v / slack for v in w))
    return CanonicalForm(geom, transpose(tuple(columns)))
