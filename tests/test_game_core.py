"""Game representation, labels, verification, and reductions."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke import (
    BimatrixGame,
    MixedProfile,
    UnitVectorGame,
    enumerate_equilibria,
    equilibria_by_vertex_enumeration,
    imitation_game,
    is_nondegenerate,
    labels_of_profile,
    random_game,
    split_symmetric_profile,
    symmetric_profile,
    symmetrize,
    verify_equilibrium,
)
from galelemke.errors import BudgetExceededError
from galelemke.game import (
    equilibrium_from_labeled_point,
    p_vertices,
    q_vertices,
    simplex_scaled,
    unit_vector_completely_labeled_points,
)
from galelemke.polytope import Dictionary, feasible_bases, vertices_nonneg_form

from conftest import C_DEGENERATE, C_THREE_EQ


def uniform(n):
    return tuple(Fraction(1, n) for _ in range(n))


def pure(n, i):
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def fraction_labels_of_profile(game, profile):
    """The label cover as ``Fraction`` sums over the original payoffs: the
    reference for the integer cover of ``labels_of_profile``."""
    m, n = game.m, game.n
    col_pay = [sum((profile.x[i] * game.b[i][j] for i in range(m)), Fraction(0)) for j in range(n)]
    row_pay = [sum((game.a[i][j] * profile.y[j] for j in range(n)), Fraction(0)) for i in range(m)]
    x_labels = {i + 1 for i, v in enumerate(profile.x) if v == 0}
    x_labels |= {m + j + 1 for j, p in enumerate(col_pay) if p == max(col_pay)}
    y_labels = {m + j + 1 for j, v in enumerate(profile.y) if v == 0}
    y_labels |= {i + 1 for i, p in enumerate(row_pay) if p == max(row_pay)}
    return frozenset(x_labels), frozenset(y_labels)


@st.composite
def games_and_profiles(draw):
    """Games of up to 4 x 4 with entries k/d, k in -4..4 and d in {1, 2, 3,
    6}: rows and columns get different lcm scales, and ties between payoffs
    are common.  Profiles have weights 0..3, so zero components are
    common too."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    game = BimatrixGame.from_rows(draw(matrix), draw(matrix))

    def strategy(size):
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        return tuple(Fraction(w, sum(weights)) for w in weights)

    return game, MixedProfile(strategy(m), strategy(n))


class TestMixedProfile:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MixedProfile.of([2, -1], [1, 0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MixedProfile.of(["1/2", "1/3"], [1, 0])

    def test_sum_of_ints_and_fractions(self):
        # the sum is checked on integers; the message shows the exact sum
        p = MixedProfile((0, Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), 0, Fraction(3, 4)))
        assert p.support() == (frozenset({2, 3}), frozenset({1, 3}))
        assert MixedProfile((1, 0), (True, False)).y == (True, False)
        with pytest.raises(ValueError, match=r"^x must sum to 1, got 4/3$"):
            MixedProfile((1, Fraction(1, 3), 0), (1,))
        with pytest.raises(ValueError, match=r"^y must sum to 1, got 2$"):
            MixedProfile((Fraction(1, 2), Fraction(1, 2)), (1, 1))
        with pytest.raises(ValueError, match=r"^y must sum to 1, got 5/6$"):
            MixedProfile((1,), (Fraction(1, 2), 0, Fraction(1, 3)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MixedProfile.of([0.5, 0.5], [1, 0])

    def test_support(self):
        p = MixedProfile.of(["1/3", "2/3", 0], [0, 1, 0])
        assert p.support() == (frozenset({1, 2}), frozenset({2}))

    def test_origin_not_scalable(self):
        with pytest.raises(ValueError):
            simplex_scaled((Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            simplex_scaled((0, 0))

    def test_simplex_scaled_ints_and_fractions(self):
        # lh_solve hands over integers (values times the basis determinant)
        scaled = simplex_scaled((0, 2, 6))
        assert scaled == (0, Fraction(1, 4), Fraction(3, 4))
        assert all(type(v) is Fraction for v in scaled)
        assert simplex_scaled((Fraction(1, 2), Fraction(1, 3))) == (Fraction(3, 5), Fraction(2, 5))


class TestLabels:
    def test_worked_example_labels(self, game22, game22_equilibrium):
        xl, yl = labels_of_profile(game22, game22_equilibrium)
        assert xl == frozenset({3, 4, 5})
        assert yl == frozenset({1, 2, 6})

    def test_pure_strategy_carries_zero_labels(self, game22):
        p = MixedProfile.of(pure(3, 0), uniform(3))
        xl, _ = labels_of_profile(game22, p)
        assert {2, 3} <= xl

    def test_single_best_response_against_pure(self):
        # distinct payoffs: exactly one best-response label on x = e_1
        rng = random.Random(7)
        values = rng.sample(range(100), 18)
        a = [values[:3], values[3:6], values[6:9]]
        b = [values[9:12], values[12:15], values[15:18]]
        game = BimatrixGame.from_rows(a, b)
        p = MixedProfile.of(pure(3, 0), uniform(3))
        xl, _ = labels_of_profile(game, p)
        best = max(range(3), key=lambda j: b[0][j])
        assert xl == frozenset({2, 3, 3 + best + 1})

    def test_dimension_mismatch(self, game22):
        with pytest.raises(ValueError):
            labels_of_profile(game22, MixedProfile.of([1], [1]))

    @pytest.mark.parametrize("x, y", [([1], [1, 0, 0]), ([1, 0, 0], [1])])
    def test_one_side_of_the_wrong_length(self, game22, x, y):
        with pytest.raises(ValueError, match="do not match game 3x3"):
            game22.check_profile(MixedProfile.of(x, y))

    @settings(max_examples=300, deadline=None)
    @given(games_and_profiles())
    # columns of B with scales 3 and 2 tie at 1/2 against x
    @example((BimatrixGame.from_rows([[1, 0], [0, 1]], [["1/3", "1/2"], ["2/3", "1/2"]]),
              MixedProfile.of(["1/2", "1/2"], [1, 0])))
    # scales 6 and 3 on equal integers: column 2 earns 1/3, column 1 only 1/6
    @example((BimatrixGame.from_rows([[1, 1]], [["1/6", "1/3"]]), MixedProfile.of([1], [1, 0])))
    def test_integer_cover_matches_fraction_reference(self, case):
        game, profile = case
        assert labels_of_profile(game, profile) == fraction_labels_of_profile(game, profile)


class TestVerifyEquilibrium:
    def test_worked_example(self, game22, game22_equilibrium):
        assert verify_equilibrium(game22, game22_equilibrium)

    def test_pure_pair_is_not_equilibrium(self, game22):
        assert not verify_equilibrium(
            game22, MixedProfile.of(pure(3, 0), pure(3, 0))
        )

    def test_support_enumeration_output_verifies(self):
        for seed in range(100):
            game = BimatrixGame.from_rows(
                [[random.Random(seed * 31 + i * 4 + j).randint(0, 99) for j in range(4)] for i in range(4)],
                [[random.Random(seed * 37 + i * 4 + j + 1).randint(0, 99) for j in range(4)] for i in range(4)],
            )
            for profile in enumerate_equilibria(game):
                assert verify_equilibrium(game, profile)

    def test_exact_label_cover_when_nondegenerate(self, game22, game22_equilibrium):
        xl, yl = labels_of_profile(game22, game22_equilibrium)
        assert xl & yl == frozenset()
        assert len(xl) + len(yl) == 6

    def test_shift_invariance(self, game22, game22_equilibrium):
        shifted = BimatrixGame(
            tuple(tuple(v + 17 for v in row) for row in game22.a),
            tuple(tuple(v + 5 for v in row) for row in game22.b),
        )
        assert verify_equilibrium(shifted, game22_equilibrium)
        assert not verify_equilibrium(
            shifted, MixedProfile.of(pure(3, 0), pure(3, 0))
        )


class TestNormalization:
    def test_already_normal_untouched(self, game22):
        a2, b2, sa, sb = game22.normalized
        assert (a2, b2) == (game22.a, game22.b)
        assert sa == 0 and sb == 0

    def test_negative_entries_shifted(self):
        game = BimatrixGame.from_rows([[-3, 1], [0, 2]], [[1, 1], [1, 1]])
        a2, _, sa, _ = game.normalized
        assert sa == 4
        assert min(v for row in a2 for v in row) == 1

    def test_zero_row_of_b_shifted(self):
        # B^T would have a zero column: P would be unbounded without a shift
        game = BimatrixGame.from_rows([[1, 0], [0, 1]], [[0, 0], [1, 2]])
        _, b2, _, sb = game.normalized
        assert sb == 1
        assert all(any(v > 0 for v in row) for row in b2)


class TestNondegeneracy:
    def test_worked_example(self, game22):
        assert is_nondegenerate(game22)

    def test_degenerate_imitation_game(self):
        game = imitation_game(C_DEGENERATE)
        assert not is_nondegenerate(game)

    def test_one_by_one(self):
        assert is_nondegenerate(BimatrixGame.from_rows([[1]], [[1]]))

    def test_duplicate_columns_are_degenerate(self):
        # payoff-equivalent strategies tie everywhere
        game = BimatrixGame.from_rows([[1, 0], [0, 1]], [[1, 1], [2, 2]])
        assert not is_nondegenerate(game)

    def test_budget_guard(self):
        game = BimatrixGame.from_rows(
            [[1] * 11 for _ in range(11)], [[1] * 11 for _ in range(11)]
        )
        with pytest.raises(BudgetExceededError):
            is_nondegenerate(game)


class TestSymmetrize:
    def test_trivial_game(self):
        game = BimatrixGame.from_rows([[1]], [[1]])
        sym = symmetrize(game)
        assert sym.a == ((0, 1), (1, 0))
        assert sym.b == ((0, 1), (1, 0))
        z = symmetric_profile(game, MixedProfile.of([1], [1]))
        assert z == (Fraction(1, 2), Fraction(1, 2))
        assert verify_equilibrium(sym, MixedProfile(z, z))

    def test_worked_example_symmetric_equilibrium(self, game22, game22_equilibrium):
        sym = symmetrize(game22)
        z = symmetric_profile(game22, game22_equilibrium)
        assert z == (
            Fraction(1, 15),
            Fraction(2, 15),
            Fraction(0),
            Fraction(2, 5),
            Fraction(2, 5),
            Fraction(0),
        )
        assert verify_equilibrium(sym, MixedProfile(z, z))

    def test_round_trip_on_random_games(self):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            game = BimatrixGame.from_rows(
                [[rng.randint(0, 99) for _ in range(3)] for _ in range(3)],
                [[rng.randint(0, 99) for _ in range(3)] for _ in range(3)],
            )
            original = set(enumerate_equilibria(game))
            sym = symmetrize(game)
            # each equilibrium maps to a verified symmetric one and comes back
            for profile in original:
                z = symmetric_profile(game, profile)
                assert verify_equilibrium(sym, MixedProfile(z, z))
                assert split_symmetric_profile(game, z) == profile
            # and the symmetric equilibria of the big game map onto the set
            recovered = {
                split_symmetric_profile(game, p.x)
                for p in enumerate_equilibria(sym)
                if p.x == p.y
            }
            assert recovered == original


class TestImitationGame:
    def test_three_equilibrium_matrix_reproduces_worked_example(self, game22):
        assert imitation_game(C_THREE_EQ) == game22

    def test_degenerate_equilibria(self):
        game = imitation_game(C_DEGENERATE)
        x = MixedProfile.of(["1/2", "1/2", 0], ["1/2", "1/2", 0])
        mid = MixedProfile.of(
            ["1/2", "1/2", 0], ["5/12", "5/12", "1/6"]
        )  # midpoint of the segment of equilibria
        other = MixedProfile.of(["1/2", "1/2", 0], ["1/3", "1/3", "1/3"])
        assert verify_equilibrium(game, x)
        assert verify_equilibrium(game, mid)
        assert verify_equilibrium(game, other)

    def test_one_by_one(self):
        game = imitation_game([[5]])
        assert verify_equilibrium(game, MixedProfile.of([1], [1]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            imitation_game([[1, 2, 3], [4, 5, 6]])

    def test_symmetric_equilibria_match_imitation_equilibria(self):
        # nondegenerate direction of the correspondence
        sym = BimatrixGame.from_rows(C_THREE_EQ, [list(r) for r in zip(*C_THREE_EQ)])
        symmetric_xs = {
            p.x for p in enumerate_equilibria(sym) if p.x == p.y
        }
        imitation_xs = {p.x for p in enumerate_equilibria(imitation_game(C_THREE_EQ))}
        assert symmetric_xs == imitation_xs


class TestDirectShape:
    """Building a game from its fields checks the shape that ``from_rows``
    and ``UnitVectorGame.of`` check, so no solver meets an empty or ragged
    payoff matrix."""

    @pytest.mark.parametrize(
        "a,b",
        [
            ((), ()),
            (((),), ((),)),
            (((1, 2), (3,)), ((1, 2), (3, 4))),
            (((1, 2), (3, 4)), ((1, 2), (3,))),
        ],
    )
    def test_bimatrix_game(self, a, b):
        with pytest.raises(ValueError):
            BimatrixGame(a, b)

    @pytest.mark.parametrize(
        "m,ell,b",
        [
            (1, (), ((),)),
            (2, (1, 2), ((1, 2), (3,))),
            (2, (1, 2), ((1, 2), (3, 4, 5))),
        ],
    )
    def test_unit_vector_game(self, m, ell, b):
        with pytest.raises(ValueError):
            UnitVectorGame(m, ell, b)


class TestUnitVectorGame:
    def test_worked_example_is_unit_vector_game(self, game22):
        u = UnitVectorGame.of(3, (1, 2, 3), game22.b)
        assert u.to_bimatrix() == game22

    def test_constant_label_duplicates_columns(self):
        u = UnitVectorGame.of(2, (1, 1, 1), [[1, 2, 3], [4, 5, 6]])
        game = u.to_bimatrix()
        assert all(game.a[0][j] == 1 for j in range(3))
        assert all(game.a[1][j] == 0 for j in range(3))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            UnitVectorGame.of(2, (1, 3), [[1, 1], [1, 1]])

    def test_no_rows(self):
        with pytest.raises(ValueError, match="m must be at least 1"):
            UnitVectorGame.of(0, (1,), [[1]])

    def test_equilibria_match_completely_labeled_points(self):
        # dual oracles: support enumeration vs labeled-polytope vertices
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            rng = random.Random(5000 + seed)
            ell = tuple(rng.randint(1, 3) for _ in range(5))
            if set(ell) != {1, 2, 3}:
                continue
            b = [[rng.randint(1, 50) for _ in range(5)] for _ in range(3)]
            u = UnitVectorGame.of(3, ell, b)
            game = u.to_bimatrix()
            if not is_nondegenerate(game):
                continue
            eq_x = {p.x for p in enumerate_equilibria(game)}
            point_x = set()
            for point, _ in unit_vector_completely_labeled_points(u):
                point_x.add(simplex_scaled(point))
                profile = equilibrium_from_labeled_point(u, point)
                assert verify_equilibrium(game, profile)
            assert eq_x == point_x
            checked += 1


def _all_pairs_equilibria(game):
    """Reference: test every P x Q vertex pair for a complete labeling."""
    full = frozenset(range(1, game.m + game.n + 1))
    qs = list(q_vertices(game))
    found = set()
    for x_point, x_labels in p_vertices(game):
        for y_point, y_labels in qs:
            if x_labels | y_labels == full and (any(x_point) or any(y_point)):
                found.add(MixedProfile(simplex_scaled(x_point), simplex_scaled(y_point)))
    return sorted(found, key=lambda p: (p.x, p.y))


class TestVertexOracle:
    def test_matches_support_enumeration(self, game22):
        assert equilibria_by_vertex_enumeration(game22) == enumerate_equilibria(game22)

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_label_index_matches_all_pairs_on_degenerate_games(self, m, n):
        # payoffs 0..2 make ties, zero rows and vertices with extra labels common
        degenerate = 0
        for seed in range(25):
            game = random_game(m, n, seed, payoff_range=(0, 2), filter_degenerate=False)
            degenerate += not is_nondegenerate(game)
            assert equilibria_by_vertex_enumeration(game) == _all_pairs_equilibria(game)
        assert degenerate


# Degenerate: support enumeration misses the two equilibria with x = (1/3, 0, 2/3).
DEGENERATE_3X4 = ([[2, 1, 1, 2], [0, 0, 2, 0], [2, 1, 2, 0]], [[2, 0, 0, 2], [0, 1, 0, 1], [1, 2, 2, 1]])


@st.composite
def small_payoffs(draw):
    """A and B rows, m and n in 1..4 with payoffs 0..2, where degeneracy is common."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=m, max_size=m)
    return draw(matrix), draw(matrix)


def _both_readers(game, oracle_first):
    """``(is_nondegenerate, equilibria_by_vertex_enumeration)``, called in either order."""
    if oracle_first:
        equilibria = equilibria_by_vertex_enumeration(game)
        return is_nondegenerate(game), equilibria
    return is_nondegenerate(game), equilibria_by_vertex_enumeration(game)


class TestVertexTables:
    """``is_nondegenerate`` and the vertex oracle share one walk of P and of Q."""

    @pytest.mark.parametrize("oracle_first", [False, True])
    def test_one_walk_per_polytope(self, monkeypatch, oracle_first):
        drawn = random_game(3, 4, 7)
        game = BimatrixGame(drawn.a, drawn.b)  # a fresh instance, whose polytopes no call has walked yet
        walks = []

        def spy(int_rows, dim):
            walks.append((tuple(int_rows), dim))
            return feasible_bases(*walks[-1])

        for name, module in list(sys.modules.items()):
            if name.startswith("galelemke") and getattr(module, "feasible_bases", None) is feasible_bases:
                monkeypatch.setattr(module, "feasible_bases", spy)
        first = _both_readers(game, oracle_first)
        assert first[0]
        assert _both_readers(game, not oracle_first) == first
        a_rows, b_cols = game.integer_payoffs
        assert sorted(walks) == sorted([(b_cols, 3), (a_rows, 4)])

    def test_points_are_built_once_per_vertex(self, monkeypatch):
        # this degenerate game has 29 feasible bases for P's 9 vertices and 31
        # for Q's 9; a point is built for a vertex's first basis only
        drawn = random_game(4, 4, 3, payoff_range=(0, 2), filter_degenerate=False)
        game = BimatrixGame(drawn.a, drawn.b)
        built = []
        scaled_point = Dictionary.scaled_point
        monkeypatch.setattr(Dictionary, "scaled_point", lambda d: built.append(d) or scaled_point(d))
        assert [len(table) for table in game._vertices] == [9, 9]
        assert len(built) == 18
        built.clear()
        assert len(list(p_vertices(game))) == 9
        assert len(built) == 9

    def test_tables_hold_only_integers(self):
        # a table of Dictionary objects would keep every basis's rows alive with the game
        game = BimatrixGame.from_rows(*DEGENERATE_3X4)
        equilibria_by_vertex_enumeration(game)
        tables = game.__dict__["_vertices"]
        assert type(tables) is tuple and len(tables) == 2
        a_rows, b_cols = game.integer_payoffs
        for table, (rows, dim) in zip(tables, ((b_cols, game.m), (a_rows, game.n))):
            assert type(table) is dict
            for mask, point in table.items():
                assert type(mask) is int
                assert type(point) in (tuple, list) and len(point) == dim
                assert all(type(v) is int for v in point)
            tight_sets = [sum(1 << v - 1 for v in tight) for _, tight in vertices_nonneg_form(rows, dim)]
            assert sorted(table) == sorted(tight_sets)

    @settings(max_examples=150, deadline=None)
    @given(small_payoffs(), st.booleans())
    @example(DEGENERATE_3X4, False)
    @example(DEGENERATE_3X4, True)
    def test_readers_match_their_definitions(self, payoffs, oracle_first):
        game = BimatrixGame.from_rows(*payoffs)
        a_rows, b_cols = game.integer_payoffs
        bases = [d for rows, dim in ((b_cols, game.m), (a_rows, game.n)) for d in feasible_bases(rows, dim)]
        nondegenerate, equilibria = _both_readers(game, oracle_first)
        assert nondegenerate == (not any(row[-1] == 0 for d in bases for row in d.rows))
        assert equilibria == _all_pairs_equilibria(game)


REFUSALS = [
    (TypeError, "expected an exact rational, got float: 0.5", lambda: BimatrixGame.from_rows([[0.5]], [[1]])),
    (TypeError, "payoffs must be exact rationals", lambda: BimatrixGame(((0.5,),), ((1,),))),
    (ValueError, "x must be nonempty", lambda: MixedProfile((), (Fraction(1),))),
    (TypeError, "x must hold exact rationals", lambda: MixedProfile((0.5, 0.5), (Fraction(1),))),
    (ValueError, "A and B must have identical shape", lambda: BimatrixGame.from_rows([[1, 2]], [[1], [2]])),
    (ValueError, "z must have length m+n", lambda: split_symmetric_profile(BimatrixGame.from_rows([[1]], [[1]]), [1, 1, 1])),
    (ValueError, "matrix must be nonnegative (shift payoffs first)", lambda: imitation_game([[1, -1], [0, 1]])),
    (ValueError, "matrix must have no zero column", lambda: imitation_game([[1, 0], [1, 0]])),
    (ValueError, "B must be m x len(ell)", lambda: UnitVectorGame.of(2, [1, 2], [[1, 2, 3], [1, 2, 3]])),
    (
        ValueError,
        "point is not completely labeled for its support",
        # x_1 = 1/10 binds no column of label 1
        lambda: equilibrium_from_labeled_point(
            UnitVectorGame.of(2, [1, 2, 1], [[1, 2, 3], [2, 1, 1]]), (Fraction(1, 10), Fraction(0))
        ),
    ),
    (
        ValueError,
        "point must have length m",
        lambda: equilibrium_from_labeled_point(UnitVectorGame.of(2, [1, 2, 1], [[1, 2, 3], [2, 1, 1]]), (Fraction(1, 3),)),
    ),
]


@pytest.mark.parametrize("error, message, call", REFUSALS, ids=[message for _, message, _ in REFUSALS])
def test_input_refusals(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
