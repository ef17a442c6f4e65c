"""Geometry of the dual cyclic polytope and the canonical coordinate change."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke import (
    GaleString,
    cyclic_geometry,
    enumerate_gale_vertices,
    geometry_vertex_strings,
    to_canonical_form,
)
from galelemke import polytope
from galelemke.errors import BudgetExceededError

from conftest import gauss_jordan


@st.composite
def geometries(draw):
    """A dual cyclic polytope with m in {2, 4, 6}, up to 5 more facets and
    strictly increasing rational parameters, negatives included."""
    m = draw(st.sampled_from([2, 4, 6]))
    f = draw(st.integers(m + 1, m + 5))
    t = draw(st.lists(st.fractions(-9, 9, max_denominator=5), min_size=f, max_size=f, unique=True))
    return cyclic_geometry(m, f, sorted(t))


def reference_b(geom):
    """B by the coordinate change x = v - G^-1 z, G the first m normals and
    G v = 1: facet g becomes -w . z <= 1 - sum(w) with G^T w = g."""
    leading_t = [list(col) for col in zip(*geom.rows[: geom.m])]
    columns = []
    for g in geom.rows[geom.m:]:
        w = gauss_jordan(leading_t, g)
        columns.append([-v / (1 - sum(w)) for v in w])
    return tuple(zip(*columns))


class TestGeometry:
    def test_quadrilateral(self):
        geom = cyclic_geometry(2, 4)
        vertices = list(geometry_vertex_strings(geom))
        assert len(vertices) == 4
        assert {str(s) for _, s in vertices} == {"11..", ".11.", "..11", "1..1"}

    def test_every_vertex_simple(self):
        geom = cyclic_geometry(4, 8)
        for _, incidence in geometry_vertex_strings(geom):
            assert incidence.m == 4

    @pytest.mark.parametrize("m", [2, 4])
    def test_incidences_match_combinatorial_enumeration(self, m):
        for f in range(m + 1, m + 7):
            geom = cyclic_geometry(m, f)
            canon = to_canonical_form(geom)
            yielded = list(geometry_vertex_strings(geom))
            for point, s in yielded:
                assert canon.incidence_of(point) == s
            geometric = {s for _, s in yielded}
            combinatorial = set(enumerate_gale_vertices(m, f))
            assert geometric == combinatorial

    def test_budget_counts_every_vertex(self, monkeypatch):
        # (4, 9) has 27 vertices, and the enumerator one basis for each
        geom = cyclic_geometry(4, 9)
        monkeypatch.setattr(polytope, "MAX_BASES", 26)
        with pytest.raises(BudgetExceededError, match="27 vertices"):
            next(geometry_vertex_strings(geom))
        monkeypatch.setattr(polytope, "MAX_BASES", 27)
        vertices = list(geometry_vertex_strings(geom))
        assert len(vertices) == len(list(enumerate_gale_vertices(4, 9))) == 27

    def test_large_polytope_matches_combinatorial_enumeration(self):
        # C(30, 6) = 593,775 facet subsets, but 3,250 vertices and bases
        assert {s for _, s in geometry_vertex_strings(cyclic_geometry(6, 30))} == set(enumerate_gale_vertices(6, 30))

    def test_custom_parameters(self):
        geom = cyclic_geometry(2, 4, t=["-2", "1/3", "5", "7"])
        assert {str(s) for _, s in geometry_vertex_strings(geom)} == {
            "11..",
            ".11.",
            "..11",
            "1..1",
        }

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cyclic_geometry(2, 4, t=[1, 1, 2, 3])
        with pytest.raises(ValueError):
            cyclic_geometry(3, 6)
        with pytest.raises(ValueError):
            cyclic_geometry(4, 4)


class TestCanonicalForm:
    def test_quadrilateral_origin(self):
        canon = to_canonical_form(cyclic_geometry(2, 4))
        origin = canon.vertex_of(GaleString.from_text("1100"))
        assert origin == (0, 0)
        assert canon.incidence_of(origin) == GaleString.from_text("1100")
        points = {canon.vertex_of(s) for s in enumerate_gale_vertices(2, 4)}
        assert len(points) == 4

    @pytest.mark.parametrize("m,f", [(2, 6), (4, 8)])
    def test_incidence_preserved_bit_for_bit(self, m, f):
        canon = to_canonical_form(cyclic_geometry(m, f))
        for s in enumerate_gale_vertices(m, f):
            point = canon.vertex_of(s)
            assert canon.incidence_of(point) == s

    def test_right_hand_sides_normalized(self):
        # by construction all transformed inequalities read <= 1; spot-check
        # through incidence: scaling any B column would break bit equality
        canon = to_canonical_form(cyclic_geometry(2, 6))
        assert len(canon.b) == 2 and len(canon.b[0]) == 4

    @settings(max_examples=40, deadline=None)
    @given(geometries())
    @example(cyclic_geometry(6, 11, t=["-5", "-7/3", "-1/2", "0", "1/4", "2", "3", "9/2", "5", "6", "17/2"]))
    @example(cyclic_geometry(2, 3, t=["-9", "-8", "9"]))
    def test_matches_reference_on_any_parameters(self, geom):
        # no strictly increasing t makes a pivot (a leading minor of the
        # normals) 0, and B is the coordinate change solved over Fractions
        canon = to_canonical_form(geom)
        assert canon.b == reference_b(geom)
        vertices = list(enumerate_gale_vertices(geom.m, geom.f))
        assert {s for _, s in geometry_vertex_strings(geom)} == set(vertices)
        for s in vertices:
            assert canon.incidence_of(canon.vertex_of(s)) == s

    def test_vertices_feasible_in_canonical_coordinates(self):
        canon = to_canonical_form(cyclic_geometry(4, 10))
        for s in enumerate_gale_vertices(4, 10):
            point = canon.vertex_of(s)
            assert all(c >= 0 for c in point)
            for j in range(canon.n):
                value = sum(canon.b[i][j] * point[i] for i in range(canon.m))
                assert value <= 1


REFUSALS = [
    ("expected 4 parameters, got 3", lambda: cyclic_geometry(2, 4, [1, 2, 3])),
    (
        "incidence string does not match this polytope",
        lambda: to_canonical_form(cyclic_geometry(2, 4)).vertex_of(GaleString.from_text("11000")),
    ),
    ("point must have length m", lambda: to_canonical_form(cyclic_geometry(2, 4)).incidence_of((0, 0, 5))),
    ("point must have length m", lambda: to_canonical_form(cyclic_geometry(2, 4)).incidence_of((0,))),
]


@pytest.mark.parametrize("message, call", REFUSALS, ids=[message for message, _ in REFUSALS])
def test_input_refusals(message, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
