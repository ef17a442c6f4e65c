"""Support guessing: single pairs, full enumeration, randomized search."""

import statistics
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import ge, le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke import (
    AllColumnSubsets,
    BimatrixGame,
    OnePerLabelClass,
    PermutationGameSpec,
    count_equilibrium_supports,
    enumerate_equilibria,
    expected_guesses,
    permutation_game,
    random_game,
    randomized_support_search,
    solve_support,
    triple_morris_game,
    verify_equilibrium,
)
from galelemke.errors import BudgetExceededError, NoEquilibriumError
from galelemke.linalg import bareiss_solve
from galelemke.support import _indifference_solution, search_equal_supports

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
    @example(([(1, (0, 0)), (1, (1, 2))], [1, 2], [1, 2]))  # solvable, weights 2 and -1
    @example(([(2, (0,)), (1, (0,))], [1], [1]))  # every row zero: not rejected
    @example(([(1, (2, 1)), (1, (1, 1))], [1, 2], [1, 2]))  # equal scales, dominated: rejected
    @example(([(2, (2, 4)), (1, (2, 1))], [1, 2], [1, 2]))  # payoffs (1, 2) and (2, 1): not rejected
    @example(([(1, (1, 2)), (1, (1, 2))], [1, 2], [1, 2]))  # equal rows: not rejected (singular)
    def test_zero_row_rejection_is_exact(self, system):
        # a row zero on the opponent's support beside a nonzero one, and a
        # row that dominates another of equal scale, are rejected before
        # elimination; the elimination itself must then find the system
        # singular or a weight that is not positive
        scaled, own, other = system
        rows = [[scaled[i - 1][1][j - 1] for j in other] for i in own]
        aug = [row + [-scaled[i - 1][0], 0] for row, i in zip(rows, own)]
        aug.append([1] * len(other) + [0, 1])
        solved = bareiss_solve(aug)
        got = _indifference_solution(scaled, own, other)
        pairs = combinations([(scaled[i - 1][0], row) for i, row in zip(own, rows)], 2)
        dominated = any(
            sa == sb and ra != rb and (all(map(ge, ra, rb)) or all(map(le, ra, rb)))
            for (sa, ra), (sb, rb) in pairs
        )
        if dominated or 0 < sum(not any(row) for row in rows) < len(rows):
            assert got is None
        else:
            assert got == solved
        if got is None:
            assert solved is None or any(w <= 0 for w in solved[0][: len(other)])


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


class TestStatsCsv:
    def test_count_helper(self):
        game = triple_morris_game(2).to_bimatrix()
        assert count_equilibrium_supports(game, AllColumnSubsets(game)) == 3
