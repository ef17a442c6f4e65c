"""Support guessing: single pairs, full enumeration, randomized search."""

import random
import statistics
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import ge

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke import (
    AllColumnSubsets,
    BimatrixGame,
    MixedProfile,
    OnePerLabelClass,
    PermutationGameSpec,
    UnitVectorGame,
    count_equilibrium_supports,
    enumerate_equilibria,
    equilibria_by_vertex_enumeration,
    expected_guesses,
    is_nondegenerate,
    morris_game,
    permutation_game,
    random_game,
    randomized_support_search,
    shuffle_columns,
    solve_support,
    triple_morris_game,
    verify_equilibrium,
)
from galelemke.errors import BudgetExceededError, NoEquilibriumError
from galelemke import support
from galelemke.game import dominance_masks
from galelemke.linalg import bareiss_solve
from galelemke.support import _indifference_solution, _opponent_mix, _rejected, search_equal_supports

from conftest import C_THREE_EQ


@st.composite
def indifference_systems(draw):
    """Nonnegative integer payoffs (entries 0..3, positive scales) of up to
    5 own strategies against up to 5 others, with equal-size supports."""
    k = draw(st.integers(1, 5))
    n_own = draw(st.integers(k, 5))
    n_other = draw(st.integers(k, 5))
    entries = st.lists(st.integers(0, 3), min_size=n_other, max_size=n_other).map(tuple)
    scaled = draw(st.lists(st.tuples(st.integers(1, 3), entries), min_size=n_own, max_size=n_own))
    own = sorted(draw(st.sets(st.integers(1, n_own), min_size=k, max_size=k)))
    other = sorted(draw(st.sets(st.integers(1, n_other), min_size=k, max_size=k)))
    return scaled, own, other


def _bits(support):
    """The bit mask of a support, as ``dominance_masks`` numbers columns."""
    return sum(1 << j for j in support)


def _plain_solve(scaled, own, other):
    """Bareiss on the indifference system of ``own`` against ``other``."""
    aug = [[scaled[i - 1][1][j - 1] for j in other] + [-scaled[i - 1][0], 0] for i in own]
    aug.append([1] * len(other) + [0, 1])
    return bareiss_solve(aug)


def _plain_mix(scaled, own, other):
    """Reference for ``support._opponent_mix``: plain elimination, then
    positive weights, then no row outside ``own`` above the payoff."""
    sol = _plain_solve(scaled, own, other)
    if sol is None or min(sol[0][: len(other)]) <= 0:
        return None
    weights, payoff = sol[0][:-1], sol[0][-1]
    for i, (scale, entries) in enumerate(scaled, start=1):
        if i not in own and sum(entries[j - 1] * w for j, w in zip(other, weights)) > scale * payoff:
            return None
    return sol


@st.composite
def rational_games(draw):
    """Nondegenerate 1..4 x 1..4 games with payoffs p/q (q up to 6), so
    the rows of A and columns of B get different integer scales."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    return draw(st.builds(BimatrixGame.from_rows, matrix, matrix).filter(is_nondegenerate))


def _plain_profile(game, s1, s2):
    """Reference for ``solve_support``: both mixes by ``_plain_mix``."""
    a_rows, b_cols = game.integer_payoffs
    y_sol = _plain_mix(a_rows, s1, s2)
    x_sol = y_sol and _plain_mix(b_cols, s2, s1)
    if not x_sol:
        return None
    weights = []
    for size, support, (nums, den) in ((game.m, s1, x_sol), (game.n, s2, y_sol)):
        w = [Fraction(0)] * size
        for k, v in zip(support, nums):
            w[k - 1] = Fraction(v, den)
        weights.append(tuple(w))
    return MixedProfile(*weights)


class TestSolveSupport:
    def test_worked_example_support(self, game22, game22_equilibrium):
        profile = solve_support(game22, {1, 2}, {1, 2})
        assert profile == game22_equilibrium
        # any order, repeats ignored
        assert solve_support(game22, (2, 1, 2), [1, 2, 1]) == game22_equilibrium

    def test_dominated_pure_cell(self, game22):
        assert solve_support(game22, {3}, {3}) is None

    def test_pure_cells(self):
        game = BimatrixGame.from_rows([[3, 0], [0, 1]], [[2, 0], [0, 1]])
        assert solve_support(game, {1}, {1}) is not None
        assert solve_support(game, {2}, {2}) is not None
        assert solve_support(game, {1}, {2}) is None

    def test_unequal_sizes_rejected(self, game22):
        with pytest.raises(ValueError):
            solve_support(game22, {1, 2}, {1})

    def test_index_zero_rejected(self):
        # indices are 1-based: 0 must not wrap round to the last strategy
        game = BimatrixGame.from_rows([[3, 0], [0, 1]], [[2, 0], [0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            solve_support(game, {0}, {0})

    def test_empty_supports_rejected(self, game22):
        with pytest.raises(ValueError, match="nonempty"):
            solve_support(game22, (), ())

    def test_returned_profiles_verify(self):
        for seed in range(30):
            game = random_game(3, 4, 7000 + seed)
            for profile in enumerate_equilibria(game):
                assert verify_equilibrium(game, profile)
                s1, s2 = profile.support()
                assert len(s1) == len(s2)  # nondegenerate games balance supports

    @settings(max_examples=400, deadline=None)
    @given(indifference_systems())
    @example(([(1, (0, 0)), (1, (1, 2))], [1, 2], [1, 2]))  # zero row: rejected (solve gives 2, -1)
    @example(([(2, (0,)), (1, (0,))], [1], [1]))  # every row zero: not rejected
    @example(([(1, (2, 1)), (1, (1, 1))], [1, 2], [1, 2]))  # equal scales, dominated: rejected
    @example(([(2, (2, 4)), (1, (2, 1))], [1, 2], [1, 2]))  # payoffs (1, 2) and (2, 1): not rejected
    @example(([(1, (1, 2)), (1, (1, 2))], [1, 2], [1, 2]))  # equal rows: not rejected (singular)
    @example(([(2, (2, 4)), (1, (1, 3))], [1, 2], [1, 2]))  # payoffs (1, 2) and (1, 3): rejected
    @example(([(1, (2, 1)), (1, (1, 2)), (1, (2, 2))], [1, 2], [1, 2]))  # outside row 3 beats: rejected
    @example(([(1, (2, 1)), (1, (1, 2)), (2, (4, 2))], [1, 2], [1, 2]))  # outside row 3 equals row 1: kept
    def test_zero_row_rejection_is_exact(self, system):
        # the mask rules reject exactly the guesses where some row is >= a
        # row i of own on every column of other and > on one (a zero row
        # beside a nonzero one is such a case), compared as payoffs
        # integers / scale; the guesses they reject never change the mix.
        # The opponent's support reaches the rules as a bit mask.
        scaled, own, other = system
        masks = dominance_masks(scaled)
        payoffs = [[Fraction(entries[j - 1], scale) for j in other] for scale, entries in scaled]
        dominated = any(
            row != payoffs[i - 1] and all(map(ge, row, payoffs[i - 1]))
            for i in own
            for row in payoffs
        )
        rejected = _rejected(masks, own, _bits(other))
        assert rejected == dominated
        assert _indifference_solution(scaled, own, other) == _plain_solve(scaled, own, other)
        assert (None if rejected else _opponent_mix(scaled, own, other)) == _plain_mix(scaled, own, other)

    def test_both_players_masks_come_before_any_solve(self, monkeypatch):
        # a guess that either player's masks reject costs no Bareiss solve,
        # and every other guess solves player 2's system at least; each
        # rule sees the opponent's support as a bit mask
        solves = []
        monkeypatch.setattr(support, "bareiss_solve", lambda system: solves.append(1) or bareiss_solve(system))
        games = [random_game(k, k, seed) for k in (3, 4, 5) for seed in range(4)]
        games += [random_game(4, 4, seed, payoff_range=(0, 2), filter_degenerate=False) for seed in range(8)]
        only_x_rejects = 0
        for game in games:
            a_masks, b_masks = map(dominance_masks, game.integer_payoffs)
            for k in range(1, game.m + 1):
                for s1 in combinations(range(1, game.m + 1), k):
                    for s2 in combinations(range(1, game.n + 1), k):
                        solves.clear()
                        solve_support(game, s1, s2)
                        y_rejects, x_rejects = _rejected(a_masks, s1, _bits(s2)), _rejected(b_masks, s2, _bits(s1))
                        only_x_rejects += x_rejects and not y_rejects
                        assert bool(solves) != (y_rejects or x_rejects), (game, s1, s2)
        assert only_x_rejects > 0

    @settings(max_examples=60, deadline=None)
    @given(rational_games(), st.one_of(st.none(), st.integers(0, 1000)))
    def test_rational_games_match_plain_elimination(self, game, seed):
        # the dominance masks compare rows of different scales here
        assert enumerate_equilibria(game) == equilibria_by_vertex_enumeration(game)
        pairs = [
            (s1, s2)
            for k in range(1, min(game.m, game.n) + 1)
            for s1 in combinations(range(1, game.m + 1), k)
            for s2 in combinations(range(1, game.n + 1), k)
        ]
        if seed is not None:
            random.Random(seed).shuffle(pairs)
        expected = next(
            (profile, guess)
            for guess, pair in enumerate(pairs, start=1)
            if (profile := _plain_profile(game, *pair)) is not None
        )
        assert search_equal_supports(game, seed) == expected


class TestEnumerateEquilibria:
    def test_symmetric_example_equilibria(self):
        game = BimatrixGame.from_rows(C_THREE_EQ, [list(r) for r in zip(*C_THREE_EQ)])
        expected = {
            (
                (Fraction(1, 3), Fraction(2, 3), Fraction(0)),
                (Fraction(1, 3), Fraction(2, 3), Fraction(0)),
            ),
            (
                (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
                (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
            ),
            (
                (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
                (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
            ),
        }
        assert {(p.x, p.y) for p in enumerate_equilibria(game)} == expected

    def test_triple_morris_count(self):
        game = triple_morris_game(2).to_bimatrix()
        assert len(enumerate_equilibria(game)) == 3

    def test_odd_equilibrium_counts(self):
        for seed in range(20):
            game = random_game(3, 3, 8100 + seed)
            assert len(enumerate_equilibria(game)) % 2 == 1

    def test_sorted_output(self):
        game = BimatrixGame.from_rows(C_THREE_EQ, [list(r) for r in zip(*C_THREE_EQ)])
        eqs = enumerate_equilibria(game)
        assert eqs == sorted(eqs, key=lambda p: (p.x, p.y))


class TestUniverses:
    def test_all_subsets_size_and_unranking(self):
        universe = AllColumnSubsets((2, 6))
        assert len(universe) == comb(6, 2)
        supports = {universe.support(i) for i in range(len(universe))}
        assert len(supports) == 15
        assert all(len(s) == 2 for s in supports)

    def test_unranking_follows_lexicographic_order(self):
        # guess counts depend on the order, not only on the set of supports
        for n in range(11):
            for k in range(n + 1):
                universe = AllColumnSubsets((k, n))
                unrank = support._unranker(n, n)
                subsets = list(combinations(range(1, n + 1), k))
                assert len(universe) == len(subsets)
                for i, subset in enumerate(subsets):
                    assert universe.support(i) == subset
                    assert unrank(k, i) == _bits(subset)

    def test_unranking_is_a_bijection(self):
        universe = AllColumnSubsets((3, 7))
        supports = {universe.support(i) for i in range(len(universe))}
        assert len(supports) == comb(7, 3)
        assert all(len(s) == 3 and max(s) <= 7 for s in supports)

    def test_lazy_shuffle_uniform(self):
        import random as random_module
        from collections import Counter

        from galelemke.support import _lazy_shuffle

        counts = Counter()
        for seed in range(3000):
            order = tuple(_lazy_shuffle(3, random_module.Random(seed)))
            counts[order] += 1
        assert len(counts) == 6
        assert all(abs(c - 500) < 120 for c in counts.values())

    def test_one_per_label_class(self):
        u = triple_morris_game(2)
        universe = OnePerLabelClass(u)
        assert len(universe) == 9
        for i in range(9):
            support = universe.support(i)
            labels = sorted(u.ell[j - 1] for j in support)
            assert labels == [1, 2]


class TestRandomizedSearch:
    def test_stats_on_triple_morris(self):
        game = triple_morris_game(2).to_bimatrix()
        universe = AllColumnSubsets(game)
        profile, stats = randomized_support_search(game, universe, seed=0)
        assert verify_equilibrium(game, profile)
        assert stats.universe_size == 15
        assert count_equilibrium_supports(game, universe) == 3
        assert 1 <= stats.guesses <= 13

    def test_single_support_universe(self):
        game = BimatrixGame.from_rows([[1]], [[1]])
        universe = AllColumnSubsets(game)
        profile, stats = randomized_support_search(game, universe, seed=5)
        assert stats.guesses == 1 and stats.universe_size == 1

    def test_exhausted_universe(self, game22):
        # the unique equilibrium does not use the full row support
        universe = AllColumnSubsets(game22)
        with pytest.raises(NoEquilibriumError):
            randomized_support_search(game22, universe, seed=1)

    @pytest.mark.parametrize(
        "universe",
        [
            AllColumnSubsets((3, 12)),
            AllColumnSubsets((5, 12)),
            AllColumnSubsets((4, 11)),
            OnePerLabelClass(morris_game(6)),
        ],
        ids=["fewer-rows", "more-rows", "fewer-columns", "another-game"],
    )
    def test_universe_of_another_shape_refused(self, universe):
        # a 4 x 12 game with 9 equilibrium supports: a universe of another
        # shape would count 0 or 6 of them, or search 1 support in vain
        game = triple_morris_game(4).to_bimatrix()
        with pytest.raises(ValueError, match="universe of"):
            count_equilibrium_supports(game, universe)
        with pytest.raises(ValueError, match="universe of"):
            randomized_support_search(game, universe, 0)

    def test_search_on_label_class_universe(self):
        uv = triple_morris_game(2)
        game = uv.to_bimatrix()
        universe = OnePerLabelClass(uv)
        profile, stats = randomized_support_search(game, universe, seed=2)
        assert verify_equilibrium(game, profile)
        assert stats.universe_size == 9
        assert count_equilibrium_supports(game, universe) == 3

    def test_deterministic_given_seed(self):
        game = triple_morris_game(2).to_bimatrix()
        universe = AllColumnSubsets(game)
        first = randomized_support_search(game, universe, seed=9)
        second = randomized_support_search(game, universe, seed=9)
        assert first == second

    def test_timed_searches_do_pinned_work(self, monkeypatch):
        # the benchmark's timed triple Morris searches: a faster search must
        # make the same guesses and the same Bareiss solves
        solves = []
        monkeypatch.setattr(support, "bareiss_solve", lambda system: solves.append(1) or bareiss_solve(system))
        work = {}
        for m, seeds in ((8, [0]), (6, range(20))):
            game = triple_morris_game(m).to_bimatrix()
            universe = AllColumnSubsets(game)
            solves.clear()
            guesses = sum(randomized_support_search(game, universe, seed)[1].guesses for seed in seeds)
            work[m] = guesses, len(solves)
        assert work == {8: (5583, 76), 6: (11916, 994)}

    def test_monte_carlo_mean_matches_expectation(self):
        game = triple_morris_game(2).to_bimatrix()
        universe = AllColumnSubsets(game)
        counts = [
            randomized_support_search(game, universe, seed=s)[1].guesses
            for s in range(2000)
        ]
        mean = statistics.mean(counts)
        exact = float(expected_guesses(15, 3))
        stderr = statistics.stdev(counts) / len(counts) ** 0.5
        assert abs(mean - exact) <= 3 * stderr


class TestSurvivorRanks:
    """The ranks of the full-row column masks that A's rule passes, by which
    a search on ``AllColumnSubsets`` passes over the rest unranked."""

    @staticmethod
    def brute_force(game):
        universe, rows = AllColumnSubsets(game), tuple(range(1, game.m + 1))
        a_masks = game._dominance[0]
        return frozenset(i for i in range(len(universe)) if not _rejected(a_masks, rows, universe.mask(i)))

    def test_ranker_inverts_the_unranker(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                unrank, rank = support._unranker(n, k), support._ranker(n, k)
                assert [rank(support._members(unrank(k, i))) for i in range(comb(n, k))] == list(range(comb(n, k)))

    @pytest.mark.parametrize("m, seed", [(2, None), (4, None), (6, None), (2, 1), (4, 2), (4, 3), (6, 4)])
    def test_equals_brute_force_survivors(self, m, seed):
        u = triple_morris_game(m)
        if seed is not None:
            u = shuffle_columns(u, seed)
        game = u.to_bimatrix()
        ranks = support._survivor_ranks(game._dominance[0], game.n)
        assert ranks == self.brute_force(game)
        assert len(ranks) == 3**m

    def test_overlapping_masks_get_none(self):
        for seed in range(10):
            game = random_game(3, 5, seed)
            assert support._survivor_ranks(game._dominance[0], game.n) is None

    def test_only_a_universe_of_all_full_row_supports_reads_them(self, monkeypatch):
        u = triple_morris_game(4)
        game = u.to_bimatrix()
        real, read = support._survivor_ranks, []
        monkeypatch.setattr(support, "_survivor_ranks", lambda a_masks, n: read.append(n) or real(a_masks, n))
        assert count_equilibrium_supports(game, OnePerLabelClass(u)) == 9
        with pytest.raises(ValueError):
            next(support._full_row_hits(game, AllColumnSubsets((game.m, game.n + 1)), []))
        assert read == []
        assert count_equilibrium_supports(game, AllColumnSubsets(game)) == 9
        assert read == [game.n]

    def test_over_budget_ranks_nothing(self, monkeypatch):
        ranked = []
        real = support._ranker
        monkeypatch.setattr(support, "_ranker", lambda n, k: ranked.append((n, k)) or real(n, k))
        support._survivor_ranks.cache_clear()
        try:
            big = triple_morris_game(12).to_bimatrix()
            assert 3**12 > support.MAX_SURVIVOR_RANKS
            assert support._survivor_ranks(big._dominance[0], big.n) is None
            assert ranked == []
            small = triple_morris_game(4).to_bimatrix()
            assert len(support._survivor_ranks(small._dominance[0], small.n)) == 81
            assert ranked == [(small.n, 4)]
        finally:
            support._survivor_ranks.cache_clear()

    @pytest.mark.parametrize("m", [4, 6])
    def test_search_and_count_match_without_ranks(self, m, monkeypatch):
        game = triple_morris_game(m).to_bimatrix()
        universe = AllColumnSubsets(game)
        searches = lambda: [randomized_support_search(game, universe, seed) for seed in range(20)]
        with_ranks, count = searches(), count_equilibrium_supports(game, universe)
        monkeypatch.setattr(support, "_survivor_ranks", lambda a_masks, n: None)
        assert searches() == with_ranks
        assert count_equilibrium_supports(game, universe) == count == 3 ** (m // 2)


class TestExpectedGuesses:
    def test_small_case(self):
        assert expected_guesses(15, 3) == 4

    def test_every_guess_succeeds(self):
        assert expected_guesses(10, 10) == 1

    def test_exact_rational_value(self):
        # |U| = C(12, 4), |E| = 9: (495 - 9) / 10 + 1
        assert expected_guesses(comb(12, 4), 9) == Fraction(486, 10) + 1

    def test_rejects_zero_equilibria(self):
        with pytest.raises(ValueError):
            expected_guesses(10, 0)

    def test_rejects_more_equilibria_than_universe(self):
        with pytest.raises(ValueError, match="more equilibria than universe elements"):
            expected_guesses(3, 4)


class TestEqualSupportSearch:
    def test_finds_unique_equilibrium(self, game22, game22_equilibrium):
        profile, guesses = search_equal_supports(game22)
        assert profile == game22_equilibrium
        assert guesses >= 1

    def test_seeded_order_still_finds_it(self, game22, game22_equilibrium):
        profile, _ = search_equal_supports(game22, seed=123)
        assert profile == game22_equilibrium

    def test_seeded_search_streams_its_pairs(self):
        # 48,619 equal-size pairs: only their shuffled order is stored, and
        # each pair is built when it is tried (about 1 KB each as a list)
        game = permutation_game(PermutationGameSpec.of(range(1, 10)))
        tracemalloc.start()
        try:
            _, guesses = search_equal_supports(game, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert guesses == 61
        assert peak < 5_000_000

    def test_pair_budget_checked_before_any_pair(self):
        # C(32, 8) - 1 equal-size pairs, well past MAX_SUPPORT_PAIRS
        game = triple_morris_game(8).to_bimatrix()
        with pytest.raises(BudgetExceededError, match="10518299 support pairs"):
            search_equal_supports(game)
        with pytest.raises(BudgetExceededError, match="10518299 support pairs"):
            enumerate_equilibria(game)


# Both equilibria pair x = (0, 1/2, 1/2), of support size 2, with a y of
# support size 1 or 3: y = (0, 1, 0) and y = (1/4, 1/2, 1/4).
UNEQUAL_SUPPORTS = ([[2, 0, 1], [0, 1, 1], [1, 1, 0]], [[0, 2, 1], [2, 1, 0], [0, 1, 2]])


class TestNoEqualSizeEquilibrium:
    """A degenerate game whose every equilibrium has supports of unequal
    size: the equal-size searches find nothing there."""

    def test_every_equilibrium_has_unequal_supports(self):
        game = BimatrixGame.from_rows(*UNEQUAL_SUPPORTS)
        assert not is_nondegenerate(game)
        assert equilibria_by_vertex_enumeration(game) == [
            MixedProfile.of(["0", "1/2", "1/2"], ["0", "1", "0"]),
            MixedProfile.of(["0", "1/2", "1/2"], ["1/4", "1/2", "1/4"]),
        ]
        assert enumerate_equilibria(game) == []

    @pytest.mark.parametrize("seed", [None, 0])
    def test_equal_support_search_finds_none(self, seed):
        with pytest.raises(NoEquilibriumError) as info:
            search_equal_supports(BimatrixGame.from_rows(*UNEQUAL_SUPPORTS), seed)
        assert str(info.value) == "no equilibrium on any equal-size support pair"


class TestStatsCsv:
    def test_count_helper(self):
        game = triple_morris_game(2).to_bimatrix()
        assert count_equilibrium_supports(game, AllColumnSubsets(game)) == 3


REFUSALS = [
    (ValueError, "need at least m columns", lambda: AllColumnSubsets((3, 2))),
    (IndexError, "3", lambda: AllColumnSubsets((2, 3)).support(3)),
    (IndexError, "-1", lambda: AllColumnSubsets((2, 3)).support(-1)),
    (IndexError, "1", lambda: OnePerLabelClass(morris_game(2)).support(1)),
    (IndexError, "-1", lambda: OnePerLabelClass(morris_game(2)).support(-1)),
    (
        ValueError,
        "every row must be the best response of some column",
        lambda: OnePerLabelClass(UnitVectorGame.of(2, [1, 1], [[1, 2], [2, 1]])),
    ),
    (ValueError, "empty universe", lambda: randomized_support_search(BimatrixGame.from_rows([[1]], [[1]]), (), 0)),
]


@pytest.mark.parametrize(
    "error, message, call", REFUSALS, ids=[f"{error.__name__}: {message}" for error, message, _ in REFUSALS]
)
def test_input_refusals(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
