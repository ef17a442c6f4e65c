"""Complementary pivoting: the worked example, projections, invariants."""

import pytest

from galelemke import (
    BimatrixGame,
    MixedProfile,
    PivotStep,
    UnitVectorGame,
    combinatorial_lemke,
    enumerate_equilibria,
    equilibria_by_vertex_enumeration,
    imitation_game,
    is_nondegenerate,
    lemke_path_on_unit_vector_game,
    lh_all_labels,
    lh_solve,
    project_path,
    random_game,
    triple_morris_game,
    triple_morris_polytope,
    verify_equilibrium,
)
from galelemke.errors import CyclingError, DegenerateGameError, StepCapExceededError
from galelemke.generators import PermutationGameSpec, permutation_game

from conftest import C_DEGENERATE


def label_pairs(result):
    path = result.path
    return [path.start] + [step.vertex for step in path.steps]


WORKED_EXAMPLE_SEQUENCE = [
    ({1, 2, 3}, {4, 5, 6}),
    ({2, 3, 6}, {4, 5, 6}),
    ({2, 3, 6}, {3, 4, 5}),
    ({2, 5, 6}, {3, 4, 5}),
    ({2, 5, 6}, {2, 3, 4}),
    ({3, 5, 6}, {2, 3, 4}),
    ({3, 5, 6}, {2, 4, 6}),
    ({3, 4, 5}, {2, 4, 6}),
    ({3, 4, 5}, {1, 2, 6}),
]


def test_pivot_step_fields_default_and_repr():
    step = PivotStep(3, 5, "v")
    assert (step.dropped, step.picked, step.vertex, step.system) == (3, 5, "v", None)
    assert repr(step) == "PivotStep(dropped=3, picked=5, vertex='v', system=None)"
    assert repr(PivotStep(1, 2, (0,), "Q")) == "PivotStep(dropped=1, picked=2, vertex=(0,), system='Q')"


class TestWorkedExample:
    def test_label_set_sequence(self, game22, game22_equilibrium):
        result = lh_solve(game22, 1)
        expected = [
            (frozenset(a), frozenset(b)) for a, b in WORKED_EXAMPLE_SEQUENCE
        ]
        assert label_pairs(result) == expected
        assert result.path_length == 8
        assert result.equilibrium == game22_equilibrium

    def test_alternation(self, game22):
        result = lh_solve(game22, 1)
        systems = [step.system for step in result.path.steps]
        assert systems == ["P", "Q"] * 4

    def test_path_endpoints(self, game22):
        result = lh_solve(game22, 1)
        assert result.path.steps[0].dropped == 1
        assert result.path.steps[-1].picked == 1

    def test_all_labels_reach_unique_equilibrium(self, game22, game22_equilibrium):
        for _, result in lh_all_labels(game22):
            assert result.equilibrium == game22_equilibrium


class TestSmallGames:
    def test_one_by_one(self):
        game = BimatrixGame.from_rows([[1]], [[1]])
        result = lh_solve(game, 1)
        assert result.equilibrium == MixedProfile.of([1], [1])
        assert result.path_length == 2
        assert result.path.steps[0].system == "P"
        assert result.path.steps[1].system == "Q"

    def test_swap_permutation_game(self):
        game = permutation_game(PermutationGameSpec.of([2, 1]))
        result = lh_solve(game, 1)
        assert result.equilibrium == MixedProfile.of(["1/2", "1/2"], ["1/2", "1/2"])
        # matches the support-enumeration oracle
        assert enumerate_equilibria(game) == [result.equilibrium]

    def test_triple_morris_endpoints(self):
        game = triple_morris_game(2).to_bimatrix()
        equilibria = set(enumerate_equilibria(game))
        assert len(equilibria) == 3
        for _, result in lh_all_labels(game):
            assert result.equilibrium in equilibria


class TestProjections:
    def test_worked_example_projections(self, game22):
        p_seq, q_seq = project_path(lh_solve(game22, 1))
        assert p_seq == [
            frozenset(s) for s in ({1, 2, 3}, {2, 3, 6}, {2, 5, 6}, {3, 5, 6}, {3, 4, 5})
        ]
        assert q_seq == [
            frozenset(s) for s in ({4, 5, 6}, {3, 4, 5}, {2, 3, 4}, {2, 4, 6}, {1, 2, 6})
        ]

    def test_projections_simple_on_random_games(self):
        for seed in range(25):
            game = random_game(3, 3, 900 + seed)
            for k in range(1, 7):
                p_seq, q_seq = project_path(lh_solve(game, k))
                assert len(p_seq) == len(set(p_seq))
                assert len(q_seq) == len(set(q_seq))


class TestUnitVectorProjection:
    def test_trivial_one_step_game(self):
        u = UnitVectorGame.of(1, (1,), [[1]])
        path = lemke_path_on_unit_vector_game(u, 1)
        assert len(path.vertices()) == 2
        assert path.vertices() == [frozenset({1}), frozenset({2})]
        assert path.label_sequence() == [(1, 1)]

    def test_worked_example_matches_p_projection(self, game22):
        u = UnitVectorGame.of(3, (1, 2, 3), game22.b)
        path = lemke_path_on_unit_vector_game(u, 1)
        p_seq, _ = project_path(lh_solve(game22, 1))
        assert [frozenset(v) for v in path.vertices()] == p_seq
        assert path.missing_label == 1
        assert path.steps[-1].picked == 1

    def test_column_labels_project_to_their_class(self):
        # missing label m+j walks the same single-polytope path as ell(j)
        u = triple_morris_game(4)
        for j in range(1, u.n + 1):
            via_column = lemke_path_on_unit_vector_game(u, u.m + j)
            via_label = lemke_path_on_unit_vector_game(u, u.ell[j - 1])
            assert via_column.vertices() == via_label.vertices()
            assert via_column.label_sequence() == via_label.label_sequence()

    def test_matches_combinatorial_engine(self):
        u = triple_morris_game(2)
        poly = triple_morris_polytope(2)
        for k in range(1, u.m + 1):
            projected = lemke_path_on_unit_vector_game(u, k)
            combinatorial = combinatorial_lemke(poly, k)
            assert projected.vertices() == [
                frozenset(s.ones()) for s in combinatorial.vertices()
            ]
            assert projected.label_sequence() == combinatorial.label_sequence()

    def test_random_unit_vector_games(self):
        # simple paths ending completely labeled, for games with no cyclic
        # structure behind them
        import random as random_module

        checked = 0
        seed = 0
        while checked < 8:
            seed += 1
            rng = random_module.Random(seed)
            ell = tuple(rng.randint(1, 3) for _ in range(5))
            if set(ell) != {1, 2, 3}:
                continue
            b = [[rng.randint(1, 30) for _ in range(5)] for _ in range(3)]
            u = UnitVectorGame.of(3, ell, b)
            if not is_nondegenerate(u.to_bimatrix()):
                continue
            for k in range(1, 9):
                path = lemke_path_on_unit_vector_game(u, k)
                vertices = path.vertices()
                assert len(vertices) == len(set(vertices))
                end_labels = {p if p <= 3 else ell[p - 4] for p in path.endpoint}
                assert end_labels == {1, 2, 3}
            checked += 1


class TestInvariantsAndErrors:
    def test_step_cap(self, game22):
        with pytest.raises(StepCapExceededError):
            lh_solve(game22, 1, step_cap=3)

    def test_missing_label_out_of_range(self, game22):
        with pytest.raises(ValueError):
            lh_solve(game22, 7)

    def test_degenerate_game_still_terminates_with_lexicographic_rule(self):
        game = imitation_game(C_DEGENERATE)
        for k in range(1, 7):
            result = lh_solve(game, k)
            assert verify_equilibrium(game, result.equilibrium)

    def test_degenerate_game_flagged_when_strictness_requested(self):
        game = imitation_game(C_DEGENERATE)
        flagged = False
        for k in range(1, 7):
            try:
                lh_solve(game, k, expect_nondegenerate=True)
            except DegenerateGameError:
                flagged = True
        assert flagged

    def test_no_infinite_loop_without_lexicographic_rule(self):
        # with the tie-breaking rule off, a degenerate game either still
        # terminates at an equilibrium or fails fast with a cycling error
        game = imitation_game(C_DEGENERATE)
        for k in range(1, 7):
            try:
                result = lh_solve(game, k, lexicographic=False)
            except CyclingError:
                continue
            assert verify_equilibrium(game, result.equilibrium)

    def test_almost_complementarity_along_path(self, game22):
        result = lh_solve(game22, 1)
        full = frozenset(range(1, 7))
        for step in result.path.steps[:-1]:
            union = step.vertex[0] | step.vertex[1]
            assert union == full - {1}
            overlap = step.vertex[0] & step.vertex[1]
            assert len(overlap) == 1
        final = result.path.steps[-1].vertex
        assert final[0] | final[1] == full

    def test_endpoint_count_even_on_small_games(self):
        # completely labeled vertex pairs, the origin pair included, pair up
        for seed in range(10):
            game = random_game(3, 3, 500 + seed)
            count = len(equilibria_by_vertex_enumeration(game)) + 1
            assert count % 2 == 0

    def test_almost_complementarity_on_random_games(self):
        # intermediate vertex pairs miss only the chosen label and hold
        # exactly one duplicate
        for seed in range(10):
            game = random_game(4, 4, 1300 + seed)
            full = frozenset(range(1, 9))
            for k in range(1, 9):
                result = lh_solve(game, k)
                for step in result.path.steps[:-1]:
                    assert step.vertex[0] | step.vertex[1] == full - {k}
                    assert len(step.vertex[0] & step.vertex[1]) == 1
                last = result.path.steps[-1].vertex
                assert last[0] | last[1] == full

    def test_negative_payoffs_solved_through_normalization(self):
        import random as random_module

        rng = random_module.Random(1)
        for _ in range(6):
            a = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(3)]
            b = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(3)]
            game = BimatrixGame.from_rows(a, b)
            shifted = BimatrixGame.from_rows(
                [[v + 100 for v in row] for row in a],
                [[v + 100 for v in row] for row in b],
            )
            assert enumerate_equilibria(game) == enumerate_equilibria(shifted)
            for k in range(1, 7):
                assert verify_equilibrium(game, lh_solve(game, k).equilibrium)
