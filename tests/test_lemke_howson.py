"""Complementary pivoting: the worked example, projections, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galelemke import (
    BimatrixGame,
    LabeledGalePolytope,
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
    split_symmetric_profile,
    symmetrize,
    triple_morris_game,
    triple_morris_polytope,
    verify_equilibrium,
)
from galelemke.errors import DegenerateGameError, StepCapExceededError
from galelemke.game import simplex_scaled
from galelemke.generators import (
    PermutationGameSpec,
    _unit_vector_game_from_polytope,
    permutation_game,
)

from conftest import C_DEGENERATE, gauss_jordan


def label_pairs(result):
    return result.path.vertices()


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


def test_pivot_step_fields_and_repr():
    step = PivotStep(3, 5, 0b101)
    assert (step.dropped, step.picked, step.bits) == (3, 5, 5)
    assert repr(step) == "PivotStep(dropped=3, picked=5, bits=5)"


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
        assert result.path.sides() == ["P", "Q"] * 4

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
        assert result.path.sides() == ["P", "Q"]

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
                # the Q moves the P-only walk leaves out are forced: the
                # product walk visits the same P vertices, column labels too
                assert vertices == project_path(lh_solve(u.to_bimatrix(), k))[0]
            checked += 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 4, 6)).flatmap(
            lambda m: st.tuples(st.just(m), st.lists(st.integers(1, m), min_size=1, max_size=6))
        )
    )
    def test_tableau_walk_matches_gale_walk(self, case):
        # the same label-forced walk on two backends: exact pivots on the
        # canonical form of the cyclic polytope, and bit scans on its strings
        m, ell = case
        poly = LabeledGalePolytope.of(m, ell)
        u = _unit_vector_game_from_polytope(poly)

        def outcome(walk, positions):
            try:
                path = walk()
            except DegenerateGameError:
                return "degenerate"
            return [positions(v) for v in path.vertices()], path.label_sequence()

        for k in range(1, m + 1):
            tableau = outcome(lambda: lemke_path_on_unit_vector_game(u, k), frozenset)
            gale = outcome(lambda: combinatorial_lemke(poly, k), lambda s: frozenset(s.ones()))
            assert tableau == gale


class TestInvariantsAndErrors:
    def test_step_cap(self, game22):
        with pytest.raises(StepCapExceededError):
            lh_solve(game22, 1, step_cap=3)

    def test_missing_label_out_of_range(self, game22):
        for k in (0, game22.m + game22.n + 1):
            with pytest.raises(ValueError, match="out of range"):
                lh_solve(game22, k)

    def test_missing_label_out_of_range_on_unit_vector_game(self):
        u = triple_morris_game(2)
        for k in (0, u.m + u.n + 1):
            with pytest.raises(ValueError, match="out of range"):
                lemke_path_on_unit_vector_game(u, k)

    def test_degenerate_game_still_terminates_with_lexicographic_rule(self):
        game = imitation_game(C_DEGENERATE)
        for k in range(1, 7):
            result = lh_solve(game, k)
            assert verify_equilibrium(game, result.equilibrium)

    def test_degenerate_game_flagged_when_strictness_requested(self):
        # the unit-vector game (I, C^T) is imitation_game(C); its walks
        # expect a nondegenerate game, so every ratio-test tie is an error
        u = UnitVectorGame.of(3, (1, 2, 3), [list(col) for col in zip(*C_DEGENERATE)])
        assert u.to_bimatrix() == imitation_game(C_DEGENERATE)
        for k in range(1, 7):
            with pytest.raises(DegenerateGameError):
                lemke_path_on_unit_vector_game(u, k)

    def test_tie_on_a_two_row_unit_vector_game_is_flagged(self):
        # both columns of B are (1, 1), so every ratio test of P ties
        tied = UnitVectorGame.of(2, (1, 2), [[1, 1], [1, 1]])
        for k in range(1, 5):
            with pytest.raises(DegenerateGameError):
                lemke_path_on_unit_vector_game(tied, k)
        clean = UnitVectorGame.of(2, (1, 2), [[1, 2], [2, 1]])
        for k in range(1, 5):
            assert lemke_path_on_unit_vector_game(clean, k).steps

    def test_almost_complementarity_along_path(self, game22):
        result = lh_solve(game22, 1)
        full = frozenset(range(1, 7))
        *middle, final = result.path.vertices()[1:]
        for vertex in middle:
            union = vertex[0] | vertex[1]
            assert union == full - {1}
            overlap = vertex[0] & vertex[1]
            assert len(overlap) == 1
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
                *middle, last = result.path.vertices()[1:]
                for vertex in middle:
                    assert vertex[0] | vertex[1] == full - {k}
                    assert len(vertex[0] & vertex[1]) == 1
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


class TestImitationWalk:
    """Lemke-Howson on G = (A, B) is the P-only walk on the imitation game
    of C = symmetrize(G).a (McLennan and Tourky 2010): the polytope
    {z >= 0, C z <= 1} is P x Q with the same labels.  Of its 2M facet
    positions (M = m + n), 1..m and M+m+1..2M belong to P, the rest to Q;
    position v <= M has label v and position M + j label j."""

    @staticmethod
    def in_p(game, v):
        return v <= game.m or v > 2 * game.m + game.n

    def assert_same_walk(self, game, k):
        big_m = game.m + game.n
        c = symmetrize(game).a
        u = UnitVectorGame.of(big_m, range(1, big_m + 1), [list(col) for col in zip(*c)])
        walk, lh = lemke_path_on_unit_vector_game(u, k), lh_solve(game, k)
        assert walk.label_sequence() == lh.path.label_sequence()
        vertices = walk.vertices()
        for previous, vertex, lh_vertex, lh_side in zip(
            vertices, vertices[1:], lh.path.vertices()[1:], lh.path.sides()
        ):
            labels = {True: set(), False: set()}
            for v in vertex:
                labels[self.in_p(game, v)].add(v - big_m if v > big_m else v)
            assert (labels[True], labels[False]) == lh_vertex
            (dropped,) = previous - vertex
            assert ("P" if self.in_p(game, dropped) else "Q") == lh_side
        # the endpoint's tight facets fix z, which splits into the LH equilibrium
        tight = sorted(walk.endpoint)
        rows = [[int(i == v - 1) for i in range(big_m)] if v <= big_m else c[v - big_m - 1] for v in tight]
        z = gauss_jordan(rows, [int(v > big_m) for v in tight])
        assert split_symmetric_profile(game, z) == lh.equilibrium

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 10**6))
    def test_matches_product_walk_on_nondegenerate_games(self, m, n, seed):
        game = random_game(m, n, seed)
        for k in range(1, m + n + 1):
            self.assert_same_walk(game, k)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_matches_product_walk_on_triple_morris(self, m):
        # the paper's family, whose walks grow exponentially in m
        game = triple_morris_game(m).to_bimatrix()
        for k in range(1, game.m + game.n + 1):
            self.assert_same_walk(game, k)

    def test_degenerate_games_raise_or_match(self):
        # on a degenerate G the imitation walk refuses a ratio-test tie
        # that lh_solve breaks lexicographically
        raised = 0
        for seed in range(40):
            game = random_game(3, 3, seed, payoff_range=(0, 2), filter_degenerate=False)
            for k in range(1, 7):
                try:
                    self.assert_same_walk(game, k)
                except DegenerateGameError:
                    raised += 1
        assert raised == 190


def table_walk(game, label, start=None):
    """Lemke-Howson for ``label`` read off ``game._vertices``, with no pivot.

    Vertices are label masks, bit l - 1 for label l (Q's y_j is label m + j
    and its row slack i label i).  Dropping a label from a vertex leads to
    the one other vertex of the same table that keeps its other tight
    labels; on a nondegenerate game that is the edge the pivot follows.
    Starts at the completely labeled pair ``start``, by default the
    artificial one, and returns the number of moves and the end pair.
    """
    m, n = game.m, game.n
    pair = list(start or ((1 << m) - 1, (1 << m + n) - (1 << m)))
    tables = label_tables(game)
    missing = drop = 1 << label - 1
    side, length = (0 if pair[0] & missing else 1), 0
    while True:
        keep = pair[side] & ~drop
        (pair[side],) = (t for t in tables[side] if t & keep == keep and t != pair[side])
        length += 1
        drop = pair[side] & ~keep
        if drop == missing:
            return length, tuple(pair)
        side ^= 1


def label_tables(game):
    """P's and Q's vertex tables keyed by label mask: mask -> point."""
    m, n = game.m, game.n
    p_table, q_table = game._vertices
    return p_table, {(t & (1 << n) - 1) << m | t >> n: point for t, point in q_table.items()}


class TestVertexTableGraph:
    """The LH graph of a nondegenerate game read off its vertex tables, an
    oracle that shares no pivot, ratio test or walk driver with ``lh_solve``."""

    @pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 4), (4, 5)])
    def test_table_walk_matches_lh_solve(self, m, n):
        for seed in range(60):
            game = random_game(m, n, seed)
            assert is_nondegenerate(game)
            tables = label_tables(game)
            for label in range(1, m + n + 1):
                length, (u, v) = table_walk(game, label)
                result = lh_solve(game, label)
                assert result.path_length == length
                assert result.equilibrium == MixedProfile(*map(simplex_scaled, (tables[0][u], tables[1][v])))

    @pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 4), (4, 5)])
    def test_walks_pair_the_equilibria_perfectly(self, m, n):
        # Shapley (1974): for each label the LH paths match the equilibria
        # and the artificial one in pairs
        full = (1 << m + n) - 1
        for seed in range(60):
            game = random_game(m, n, seed)
            p_table, q_table = label_tables(game)
            ends = [(u, v) for u in p_table for v in q_table if u | v == full]
            assert len(ends) % 2 == 0
            for label in range(1, m + n + 1):
                partner = {end: table_walk(game, label, end)[1] for end in ends}
                assert all(partner[end] != end and partner[partner[end]] == end for end in ends)
