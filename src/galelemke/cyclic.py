"""Dual cyclic polytopes with exact rational coordinates.

The polytope in dimension m with f facets is cut out by the inequalities
(mu(t_j) - mean)^T x <= 1 where mu(t) = (t, t^2, ..., t^m) and the mean is
taken over the f curve points; any strictly increasing parameters t work.
Its vertex-facet incidences are exactly the evenness bitstrings, which the
tests cross-check against the combinatorial enumeration.  The canonical
form is read off an integer dictionary; nothing here solves over Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polytope
from .errors import BudgetExceededError
from .game import Matrix, as_fraction, transpose
from .gale import GaleString, vertex_count
from .linalg import bareiss_solve, pivot, scaled_to_integers


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


def geometry_vertex_strings(geom: CyclicPolytopeGeometry):
    """Exact vertex enumeration, yielding (point, incidence string).

    Runs the vertex enumerator on ``to_canonical_form(geom)``, so each point
    is in canonical coordinates (``CanonicalForm.incidence_of`` maps it back
    to its string): tight coordinate i is facet i, tight row j facet m+j.
    The polytope is simple, so the enumerator visits one feasible basis per
    vertex, ``gale.vertex_count`` of them: when that is more than
    ``polytope.MAX_BASES``, the enumeration is refused before any work.
    """
    count = vertex_count(geom.m, geom.f)
    if count > polytope.MAX_BASES:
        raise BudgetExceededError(f"{count} vertices for ({geom.m}, {geom.f}), more than {polytope.MAX_BASES} bases")
    int_rows = [scaled_to_integers(col) for col in transpose(to_canonical_form(geom).b)]
    for point, tight in polytope.vertices_nonneg_form(int_rows, geom.m):
        yield point, GaleString.from_positions(geom.f, tight)


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
        aug = []
        for p in s.ones():
            if p <= self.m:
                aug.append([int(i == p - 1) for i in range(self.m)] + [0])
            else:
                scale, integers = scaled_to_integers([row[p - self.m - 1] for row in self.b])
                aug.append([*integers, scale])
        solved = bareiss_solve(aug)
        if solved is None:
            raise ValueError(f"{s} does not determine a vertex")
        return tuple(Fraction(v, solved[1]) for v in solved[0])

    def incidence_of(self, point) -> GaleString:
        """Tight-facet bitstring of a point in canonical coordinates."""
        point = tuple(as_fraction(v) for v in point)
        if len(point) != self.m:
            raise ValueError("point must have length m")
        positions = [p for p in range(1, self.m + 1) if point[p - 1] == 0]
        for j in range(self.n):
            if sum(self.b[i][j] * point[i] for i in range(self.m)) == 1:
                positions.append(self.m + j + 1)
        return GaleString.from_positions(self.geometry.f, positions)


def to_canonical_form(geom: CyclicPolytopeGeometry) -> CanonicalForm:
    """Affine change of coordinates sending the vertex on the first m facets
    to the origin and those facets to the coordinate hyperplanes; the last n
    inequalities are normalized to right-hand side 1.

    It is that vertex's integer dictionary, as lrs reads it (Avis 2000):
    x_c enters on facet c's slack row by ``linalg.pivot``, c < m, so column
    i holds scale_i * z_i, and B[i][j] is row m+j's entry there times
    scale_i over its rhs; rhs / det (det may be < 0) is facet m+j's slack at
    the origin.  For strictly increasing t no ValueError fires.  Pivot c is
    the leading r-minor of the normals, r = c+1, and is not 0: at the
    centroid, the monic polynomial with roots t_1..t_r, which is 0 on the
    hyperplane through the first r curve points, is Σ_{k>r} Π_{i≤r} (t_k -
    t_i) / f > 0.  The polytope is simple: no later facet holds the origin.
    """
    scaled = [scaled_to_integers(g) for g in geom.rows]
    rows, det, m = [[*integers, scale] for scale, integers in scaled], 1, geom.m
    for c in range(m):
        if rows[c][c] == 0:
            raise ValueError("a leading minor of the first m facet normals is 0")
        rows, det = pivot(rows, c, c, det), rows[c][c]
    if any(row[-1] * det <= 0 for row in rows[m:]):
        raise ValueError("base vertex unexpectedly lies on a later facet")
    b = tuple(tuple(Fraction(row[i] * scaled[i][0], row[-1]) for row in rows[m:]) for i in range(m))
    return CanonicalForm(geom, b)
