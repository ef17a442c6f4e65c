"""Instance families: label strings, permutation games, random games."""

import itertools
from fractions import Fraction

import pytest

from galelemke import (
    PermutationGameSpec,
    completely_labeled_strings,
    enumerate_equilibria,
    is_nondegenerate,
    morris_game,
    morris_polytope,
    morris_sigma,
    morris_tau,
    permutation_equilibria,
    permutation_game,
    random_game,
    random_permutation,
    shuffle_columns,
    triple_morris_game,
    triple_morris_polytope,
    verify_equilibrium,
)
from galelemke.errors import GaleLemkeError


class TestMorrisStrings:
    @pytest.mark.parametrize(
        "m,expected",
        [(2, "12"), (4, "1324"), (6, "132546"), (8, "13254768")],
    )
    def test_tau(self, m, expected):
        assert "".join(map(str, morris_tau(m))) == expected

    @pytest.mark.parametrize(
        "m,expected",
        [(2, "21"), (4, "4231"), (6, "645231"), (8, "86745231")],
    )
    def test_sigma(self, m, expected):
        assert "".join(map(str, morris_sigma(m))) == expected

    @pytest.mark.parametrize("m", range(2, 21, 2))
    def test_sigma_is_tau_reversed_and_a_permutation(self, m):
        assert tuple(reversed(morris_sigma(m))) == morris_tau(m)
        assert sorted(morris_tau(m)) == list(range(1, m + 1))
        assert sorted(morris_sigma(m)) == list(range(1, m + 1))

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            morris_tau(5)
        with pytest.raises(ValueError):
            morris_polytope(3)
        with pytest.raises(ValueError):
            triple_morris_polytope(3)


class TestTripleMorris:
    def test_six_dimensional_label_string(self):
        poly = triple_morris_polytope(6)
        assert "".join(map(str, poly.ell)) == "645231132546645231"

    def test_two_dimensional_label_string(self):
        assert "".join(map(str, triple_morris_polytope(2).ell)) == "211221"

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_facet_count(self, m):
        poly = triple_morris_polytope(m)
        assert poly.n == 3 * m and poly.f == 4 * m

    def test_two_dimensional_game(self):
        u = triple_morris_game(2)
        game = u.to_bimatrix()
        equilibria = enumerate_equilibria(game)
        assert len(equilibria) == 3
        assert all(all(v > 0 for v in p.x) for p in equilibria)

    @pytest.mark.parametrize("m", [2, 4])
    def test_equilibria_match_strings(self, m):
        u = triple_morris_game(m)
        game = u.to_bimatrix()
        string_supports = {
            frozenset(p - u.m for p in s.ones())
            for s in completely_labeled_strings(triple_morris_polytope(m))
            if not s.bit(u.m)  # skip the origin string
        }
        equilibrium_supports = {p.support()[1] for p in enumerate_equilibria(game)}
        assert equilibrium_supports == string_supports

    def test_four_dimensional_count(self):
        game = triple_morris_game(4).to_bimatrix()
        assert len(enumerate_equilibria(game)) == 9

    def test_morris_game_single_equilibrium(self):
        game = morris_game(4).to_bimatrix()
        equilibria = enumerate_equilibria(game)
        assert len(equilibria) == 1
        assert all(v > 0 for v in equilibria[0].x)

    def test_shuffle_columns_preserves_equilibrium_count(self):
        u = triple_morris_game(2)
        shuffled = shuffle_columns(u, seed=3)
        assert sorted(shuffled.ell) == sorted(u.ell)
        game = shuffled.to_bimatrix()
        assert len(enumerate_equilibria(game)) == 3


class TestPermutationGames:
    def test_identity_two(self):
        spec = PermutationGameSpec.of([1, 2])
        equilibria = permutation_equilibria(spec)
        assert len(equilibria) == 3
        game = permutation_game(spec)
        assert set(enumerate_equilibria(game)) == set(equilibria)

    def test_swap_two(self):
        spec = PermutationGameSpec.of([2, 1])
        equilibria = permutation_equilibria(spec)
        assert len(equilibria) == 1
        assert equilibria[0].x == (Fraction(1, 2), Fraction(1, 2))

    def test_singleton(self):
        spec = PermutationGameSpec.of([1])
        assert permutation_equilibria(spec)[0].x == (Fraction(1),)

    def test_cycle_count_formula(self):
        for pi in itertools.permutations(range(1, 5)):
            spec = PermutationGameSpec.of(pi)
            assert len(permutation_equilibria(spec)) == 2 ** len(spec.cycles()) - 1

    def test_matches_support_enumeration_for_all_n4_permutations(self):
        for pi in itertools.permutations(range(1, 5)):
            spec = PermutationGameSpec.of(pi)
            game = permutation_game(spec)
            assert set(enumerate_equilibria(game)) == set(permutation_equilibria(spec))

    def test_all_returned_profiles_verify(self):
        spec = PermutationGameSpec.of([2, 3, 1, 5, 4])
        game = permutation_game(spec)
        for profile in permutation_equilibria(spec):
            assert verify_equilibrium(game, profile)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_mean_equilibrium_count(self, n):
        total = sum(
            len(permutation_equilibria(PermutationGameSpec.of(pi)))
            for pi in itertools.permutations(range(1, n + 1))
        )
        assert Fraction(total) == Fraction(n) * Fraction(
            len(list(itertools.permutations(range(1, n + 1))))
        )

    def test_single_cycle_fraction(self):
        n = 5
        single = sum(
            1
            for pi in itertools.permutations(range(1, n + 1))
            if len(PermutationGameSpec.of(pi).cycles()) == 1
        )
        assert Fraction(single, 120) == Fraction(1, n)


class TestRandomGenerators:
    def test_random_permutation_deterministic(self):
        assert random_permutation(8, 7) == random_permutation(8, 7)
        assert random_permutation(8, 7) != random_permutation(8, 8)

    def test_random_game_deterministic_and_nondegenerate(self):
        game = random_game(4, 4, 11)
        assert game == random_game(4, 4, 11)
        assert is_nondegenerate(game)

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0)])
    def test_random_game_needs_a_strategy_each(self, m, n):
        with pytest.raises(ValueError, match="m and n must be at least 1"):
            random_game(m, n, 0)

    def test_default_draws_are_pinned(self):
        # payoffs are drawn uniformly from 0..999; seed 291 draws a value
        # that a range reaching 1000 would keep and this range redraws
        rows = lambda game: [[list(map(int, row)) for row in mat] for mat in (game.a, game.b)]
        assert rows(random_game(2, 2, 0)) == [[[864, 394], [776, 911]], [[430, 41], [265, 988]]]
        assert rows(random_game(2, 2, 291)) == [[[674, 484], [751, 648]], [[514, 848], [93, 399]]]
        assert rows(random_game(1, 1, 0)) == [[[864]], [[394]]]

    def test_retry_cap(self):
        with pytest.raises(GaleLemkeError):
            random_game(2, 2, 0, payoff_range=(1, 1))  # constant games are degenerate

    def test_wide_range_past_budget(self):
        game = random_game(11, 10, 3, payoff_range=(0, 9))
        assert max(v for row in game.a for v in row) > 9

    @pytest.mark.parametrize("lo, hi", [(10**7, 10**7 + 9), (-50, 50)])
    def test_widened_range_keeps_its_low_end(self, lo, hi):
        game = random_game(11, 10, 3, payoff_range=(lo, hi))
        entries = [v for mat in (game.a, game.b) for row in mat for v in row]
        assert lo <= min(entries) and max(entries) <= lo + 10**6
        assert max(entries) > hi
        # the draw reaches past a range ten times narrower
        assert max(entries) > lo + 10**5


REFUSALS = [
    ("pi must be a permutation of 1..n", lambda: PermutationGameSpec.of([1, 1])),
    ("n must be at least 1", lambda: random_permutation(0, 0)),
    ("empty payoff range", lambda: random_game(2, 2, 0, payoff_range=(3, 2))),
    *(
        (f"invalid integer {v!r}", lambda v=v: PermutationGameSpec.of([2, v]))
        for v in (1.5, Fraction(3, 2), True, "+1", "\u0661", "1_0")
    ),
]
# refusals whose message repeats one above, so each is named by its own id
REPEATED = {
    "pi must be a permutation of 1..n: floats": ("pi must be a permutation of 1..n", lambda: PermutationGameSpec(2, (2.0, 1.0))),
    "pi must be a permutation of 1..n: a bool": ("pi must be a permutation of 1..n", lambda: PermutationGameSpec(2, (2, True))),
    "n must be at least 1: an empty pi": ("n must be at least 1", lambda: PermutationGameSpec.of([])),
}


@pytest.mark.parametrize(
    "message, call", [*REFUSALS, *REPEATED.values()], ids=[*(message for message, _ in REFUSALS), *REPEATED]
)
def test_input_refusals(message, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
