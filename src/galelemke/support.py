"""Support enumeration and randomized support search.

Guessing a pair of equal-size supports reduces equilibrium finding to two
square linear systems (equal payoffs on the opponent's support, probabilities
summing to one) plus best-response checks outside the supports; a guess that
either player's dominance masks reject costs no solve.  A search's column
supports are bit masks until player 1's masks pass them, which most never do.
When they partition the columns (a unit-vector game's label classes), a
full-row search over ``AllColumnSubsets`` ranks the supports they pass once
and unranks only the draws among them; otherwise it tests every draw.
Singular or infeasible systems are normal negative outcomes.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial, reduce
from itertools import accumulate, combinations, product
from math import comb, prod
from operator import getitem, or_

from .errors import BudgetExceededError, InvariantError, NoEquilibriumError
from .game import ZERO, BimatrixGame, MixedProfile, UnitVectorGame, verify_equilibrium
from .linalg import bareiss_solve

MAX_SUPPORT_PAIRS = 1 << 22
MAX_SURVIVOR_RANKS = 1 << 16


def _members(mask: int) -> tuple[int, ...]:
    """The members of a bit mask, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def _rejected(masks, own, other: int) -> bool:
    """True iff ``masks``, the ``dominance_masks`` of the opponent's payoff
    vectors, beat a row i of ``own`` on the bit mask ``other``: some row k,
    in ``own`` or not, is >= i on every column of ``other`` and > i on one
    (checked first, as the cheap case: i is zero there while another row of
    ``own`` is not).
    Exact for ``_opponent_mix``: against weights positive on ``other``, k
    earns more than i, so if k is in ``own`` any indifferent solution has a
    weight <= 0, and if k is not, ``_beaten`` rejects the weights.
    """
    nonzero, beaten_by = masks
    hit = [nonzero[i - 1] & other != 0 for i in own]
    if any(hit) != all(hit):
        return True
    for i in own:
        for lt, gt in beaten_by[i - 1]:
            if not other & lt and other & gt:
                return True
    return False


def _indifference_solution(scaled, own, other):
    """Weights on ``other`` that make the opponent indifferent across
    ``own``, which sum to 1, and the common payoff, as ``(numerators,
    denominator)`` with the payoff last; None if the system is singular.
    ``scaled[k]`` is the opponent's payoff vector of own strategy k+1 as a
    ``(scale, integers)`` pair of nonnegative normalized payoffs.
    """
    system = []
    for i in own:
        scale, entries = scaled[i - 1]
        system.append([entries[j - 1] for j in other] + [-scale, 0])
    system.append([1] * len(other) + [0, 1])
    return bareiss_solve(system)


def _beaten(scaled, own, other, numerators) -> bool:
    """True iff a strategy outside ``own`` earns more than the support
    payoff against the weights (all compared over their common
    denominator)."""
    payoff = numerators[-1]
    inside = set(own)
    for i, (scale, entries) in enumerate(scaled, start=1):
        if i not in inside:
            if sum(entries[j - 1] * w for j, w in zip(other, numerators)) > scale * payoff:
                return True
    return False


def _mixed(size: int, support, numerators, denominator) -> tuple[Fraction, ...]:
    weights = [ZERO] * size
    for k, w in zip(support, numerators):
        weights[k - 1] = Fraction(w, denominator)
    return tuple(weights)


def solve_support(game: BimatrixGame, s1, s2) -> MixedProfile | None:
    """The equilibrium supported exactly on rows ``s1`` and columns ``s2``
    (1-based indices, any order, repeats ignored), if one exists.

    Requires nonempty supports of equal size inside 1..m and 1..n.  Returns
    None when the linear systems are singular, a weight leaves the support
    (zero or negative), or a strategy outside a support beats the support
    payoff.  Works on the game's integer (normalized) payoffs: shifting a
    player's payoffs by a constant moves the support payoff by the same
    constant and leaves the weights, the singular cases and every
    best-response comparison as they are.  Fractions are built only for an
    equilibrium found.
    """
    s1, s2 = sorted(set(s1)), sorted(set(s2))
    if not s1 or len(s1) != len(s2):
        raise ValueError("supports must be nonempty and of equal size")
    if s1[0] < 1 or s2[0] < 1 or s1[-1] > game.m or s2[-1] > game.n:
        raise ValueError("support indices out of range")
    if _rejected(game._dominance[0], s1, sum(1 << j for j in s2)):
        return None
    return _solve_support(game, s1, s2)


def _solve_support(game: BimatrixGame, s1, s2) -> MixedProfile | None:
    """``solve_support`` on supports that are ascending, in range, of equal
    size and passed by player 1's dominance masks, as every search hands them
    on.  Player 2's masks are checked before either system is built; then
    player 2's mix is solved, and player 1's only if it holds."""
    if _rejected(game._dominance[1], s2, sum(1 << i for i in s1)):
        return None
    a_rows, b_cols = game.integer_payoffs
    y_sol = _opponent_mix(a_rows, s1, s2)
    x_sol = None if y_sol is None else _opponent_mix(b_cols, s2, s1)
    if x_sol is None:
        return None
    return MixedProfile(_mixed(game.m, s1, *x_sol), _mixed(game.n, s2, *y_sol))


def _opponent_mix(scaled, own, other):
    """``_indifference_solution`` if its weights are all positive and no
    strategy outside ``own`` beats them, else None."""
    sol = _indifference_solution(scaled, own, other)
    if sol is None or min(sol[0][: len(own)]) <= 0 or _beaten(scaled, own, other, sol[0]):
        return None
    return sol


def _hits(game: BimatrixGame, pairs):
    """``(guess number, profile)`` for each pair of ascending rows and a
    column mask of ``pairs`` that carries an equilibrium, guesses counted
    from 1; the column tuple is built only if player 1's masks pass."""
    a_masks = game._dominance[0]
    for guess, (s1, columns) in enumerate(pairs, start=1):
        if not _rejected(a_masks, s1, columns):
            profile = _solve_support(game, s1, _members(columns))
            if profile is not None:
                yield guess, profile


def _unranker(n: int, top: int):
    """The unchecked map from ``(k, index)``, k <= top, to the bit mask of
    the index'th k-subset of 1..n in lexicographic order.  Row c from the
    end of its table holds C(n - v, c) for v = 0..n: the subsets passed over
    by skipping value v with c + 1 members still to choose."""
    table = [[comb(n - v, c) for v in range(n + 1)] for c in reversed(range(top))]

    def unrank(k: int, index: int) -> int:
        mask, value = 0, 1
        for row in table[top - k :]:
            while index >= (skip := row[value]):
                index -= skip
                value += 1
            mask |= 1 << value
            value += 1
        return mask

    return unrank


def _ranker(n: int, k: int):
    """The inverse of ``_unranker(n, k)`` at k: the map from the ascending
    members c_1 < ... < c_k of a k-subset of 1..n to its lexicographic
    rank, C(n, k) - 1 - sum_i C(n - c_i, k - i + 1).  Row i of the table
    holds that term for position i + 1 and each value."""
    table = [[comb(n - v, k - i) for v in range(n + 1)] for i in range(k)]
    last = comb(n, k) - 1
    return lambda members: last - sum(map(getitem, table, members))


def _equal_pairs(m: int, n: int, seed: int | None = None):
    """Stream every equal-size support pair of an m x n game, as ascending
    rows and a column mask: size-ascending and lexicographic, or in the
    order of a seeded shuffle of that list.

    Raises BudgetExceededError, before building any pair, when there are
    more than MAX_SUPPORT_PAIRS of them.  A shuffled pair is unranked from
    its position when it is reached; only the permutation and the row
    supports drawn so far are stored.
    """
    sizes = range(1, min(m, n) + 1)
    counts = [comb(m, k) * comb(n, k) for k in sizes]
    total = sum(counts)
    if total > MAX_SUPPORT_PAIRS:
        raise BudgetExceededError(f"{total} support pairs exceed the budget {MAX_SUPPORT_PAIRS}")
    if seed is None:
        bits = [1 << j for j in range(1, n + 1)]
        return (
            (s1, columns)
            for k in sizes
            for s1 in combinations(range(1, m + 1), k)
            for columns in map(sum, combinations(bits, k))
        )
    # shuffle draws depend only on the length: the same permutation as
    # shuffling the list of pairs itself
    order = array("q", range(total))
    random.Random(seed).shuffle(order)
    starts = list(accumulate(counts, initial=0))
    rows, columns = _unranker(m, len(sizes)), _unranker(n, len(sizes))
    row_set = cache(lambda k, i1: _members(rows(k, i1)))  # each recurs in C(n, k) pairs

    def pair(rank: int):
        k = bisect_right(starts, rank)
        i1, i2 = divmod(rank - starts[k - 1], comb(n, k))
        return row_set(k, i1), columns(k, i2)

    return map(pair, order)


def enumerate_equilibria(game: BimatrixGame) -> list[MixedProfile]:
    """All equilibria of a nondegenerate game, by trying every equal-size
    support pair; deduplicated and sorted lexicographically."""
    found = {profile for _, profile in _hits(game, _equal_pairs(game.m, game.n))}
    return sorted(found, key=lambda p: (p.x, p.y))


def search_equal_supports(game: BimatrixGame, seed: int | None = None) -> tuple[MixedProfile, int]:
    """First equilibrium over all equal-size support pairs and the number of
    guesses spent; size-ascending order, shuffled when a seed is given.
    Refuses more than MAX_SUPPORT_PAIRS pairs, like enumerate_equilibria."""
    for guesses, profile in _hits(game, _equal_pairs(game.m, game.n, seed)):
        return profile, guesses
    raise NoEquilibriumError("no equilibrium on any equal-size support pair")


# ---------------------------------------------------------------------------
# Randomized search over a pluggable support universe (row support fixed to
# all rows, column supports of size m).


class AllColumnSubsets:
    """Universe of all size-m subsets of the n columns, in lexicographic
    order."""

    name = "all-m-subsets"

    def __init__(self, game_or_dims):
        if isinstance(game_or_dims, (BimatrixGame, UnitVectorGame)):
            self.m, self.n = game_or_dims.m, game_or_dims.n
        else:
            self.m, self.n = game_or_dims
        if self.n < self.m:
            raise ValueError("need at least m columns")

    def __len__(self) -> int:
        return comb(self.n, self.m)

    @cached_property
    def mask(self):
        """The unchecked map from index to the column mask of its support."""
        return partial(_unranker(self.n, self.m), self.m)

    def support(self, index: int) -> tuple[int, ...]:
        """Lexicographic unranking of the index'th m-subset of 1..n."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        return _members(self.mask(index))


class OnePerLabelClass:
    """Universe picking one column from each best-response class of a
    unit-vector game; size is the product of the class sizes."""

    name = "one-per-unit-vector"

    def __init__(self, u: UnitVectorGame):
        self.m, self.n = u.m, u.n
        self.classes = [tuple(j + 1 for j, lab in enumerate(u.ell) if lab == i) for i in range(1, u.m + 1)]
        if not all(self.classes):
            raise ValueError("every row must be the best response of some column")

    def __len__(self) -> int:
        return prod(len(cols) for cols in self.classes)

    def mask(self, index: int) -> int:
        """The column mask of the index'th support, unchecked."""
        mask = 0
        for cols in reversed(self.classes):
            index, pos = divmod(index, len(cols))
            mask |= 1 << cols[pos]
        return mask

    def support(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < len(self):
            raise IndexError(index)
        return _members(self.mask(index))


@dataclass(frozen=True)
class SearchStats:
    """Outcome counters of one randomized search."""

    guesses: int
    universe_size: int


def _lazy_shuffle(size: int, rng: random.Random):
    """Stream a uniform permutation of range(size) without materializing it."""
    slots: dict[int, int] = {}
    for i in range(size):
        j = rng.randrange(i, size)
        vi = slots.get(i, i)
        vj = slots.get(j, j)
        slots[i], slots[j] = vj, vi
        yield vj


@lru_cache(maxsize=4)
def _survivor_ranks(a_masks, n: int) -> frozenset[int] | None:
    """The ranks, in ``AllColumnSubsets`` order, of the size-m column masks
    that player 1's ``dominance_masks`` pass against all m rows; None unless
    the nonzero masks partition the columns 1..n into classes whose product
    has at most MAX_SURVIVOR_RANKS members.  A passing mask hits some class,
    so every class: one column from each of the m.  ``_rejected`` passes all
    of that product: normalized payoffs are >= 0, so every other row is 0 on
    row i's class, where row i is positive, and each ``(lt, gt)`` of row i
    has ``lt`` covering that class, which the mask meets.  Keyed by the
    masks, so games with equal payoffs share a set.
    """
    nonzero = a_masks[0]
    if reduce(or_, nonzero) != (1 << n + 1) - 2 or sum(map(int.bit_count, nonzero)) != n:
        return None
    classes = [_members(mask) for mask in nonzero]
    if prod(map(len, classes)) > MAX_SURVIVOR_RANKS:
        return None
    rank = _ranker(n, len(classes))
    return frozenset(rank(sorted(columns)) for columns in product(*classes))


def _full_row_hits(game: BimatrixGame, universe, indices=None):
    """``(guess number, profile)`` for each of the universe's ``indices``
    (None: all of them) whose column mask carries an equilibrium against all
    rows, guesses counted from 1.  On an ``AllColumnSubsets`` universe with
    ``_survivor_ranks``, only indices among them are unranked (and scanned);
    otherwise every mask meets player 1's masks.  Raises ValueError when the
    universe is not of the game's shape."""
    if (universe.m, universe.n) != (game.m, game.n):
        raise ValueError(f"a universe of {universe.m} x {universe.n} supports for a {game.m} x {game.n} game")
    a_masks, rows, mask = game._dominance[0], tuple(range(1, game.m + 1)), universe.mask
    ranks = None
    if isinstance(universe, AllColumnSubsets):
        ranks = _survivor_ranks(a_masks, game.n)
    if indices is None:
        indices = range(len(universe)) if ranks is None else sorted(ranks)
    if ranks is None:
        guesses = enumerate(map(mask, indices), start=1)
        passed = ((guess, columns) for guess, columns in guesses if not _rejected(a_masks, rows, columns))
    else:
        passed = ((guess, mask(index)) for guess, index in enumerate(indices, start=1) if index in ranks)
    for guess, columns in passed:
        profile = _solve_support(game, rows, _members(columns))
        if profile is not None:
            yield guess, profile


def count_equilibrium_supports(game: BimatrixGame, universe) -> int:
    """Scan the whole universe once and count the supports that carry an
    equilibrium (with the row player on full support)."""
    return sum(1 for _ in _full_row_hits(game, universe))


def randomized_support_search(
    game: BimatrixGame, universe, seed: int
) -> tuple[MixedProfile, SearchStats]:
    """Test the universe's supports in seeded uniform random order, pairing
    each against the full row support, until an equilibrium appears.

    On an ``AllColumnSubsets`` universe whose player 1 masks partition the
    columns (a unit-vector game's label classes), a drawn index outside
    ``_survivor_ranks`` counts as a guess without being unranked; with
    overlapping masks, more than MAX_SURVIVOR_RANKS survivors or another
    universe, every draw is unranked and tested.  The draws, guess counts
    and profiles are the same either way.

    Raises ValueError for an empty universe or one not of the game's shape,
    and NoEquilibriumError when the universe holds none.
    """
    size = len(universe)
    if size == 0:
        raise ValueError("empty universe")
    order = _lazy_shuffle(size, random.Random(seed))
    for guesses, profile in _full_row_hits(game, universe, order):
        if not verify_equilibrium(game, profile):
            raise InvariantError("support solution fails the label cover")
        return profile, SearchStats(guesses, size)
    raise NoEquilibriumError(f"no equilibrium among the {size} supports of universe {universe.name!r}")


def expected_guesses(universe_size: int, equilibrium_count: int) -> Fraction:
    """Exact expected number of guesses until the first success when testing
    uniformly without replacement: (|U| - |E|) / (|E| + 1) + 1."""
    if equilibrium_count <= 0:
        raise ValueError("at least one equilibrium support is required")
    if equilibrium_count > universe_size:
        raise ValueError("more equilibria than universe elements")
    return Fraction(universe_size - equilibrium_count, equilibrium_count + 1) + 1
