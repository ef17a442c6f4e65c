"""Geometry of the dual cyclic polytope and the canonical coordinate change."""

from math import comb

import pytest

from galelemke import (
    GaleString,
    cyclic_geometry,
    enumerate_gale_vertices,
    geometry_vertex_strings,
    to_canonical_form,
)
from galelemke.errors import BudgetExceededError


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

    def test_budget_counts_every_facet_subset(self):
        geom = cyclic_geometry(4, 9)
        with pytest.raises(BudgetExceededError):
            next(geometry_vertex_strings(geom, budget=comb(9, 4) - 1))
        vertices = list(geometry_vertex_strings(geom, budget=comb(9, 4)))
        assert len(vertices) == len(list(enumerate_gale_vertices(4, 9)))

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

    def test_vertices_feasible_in_canonical_coordinates(self):
        canon = to_canonical_form(cyclic_geometry(4, 10))
        for s in enumerate_gale_vertices(4, 10):
            point = canon.vertex_of(s)
            assert all(c >= 0 for c in point)
            for j in range(canon.n):
                value = sum(canon.b[i][j] * point[i] for i in range(canon.m))
                assert value <= 1
