"""Instance families: Morris label strings, permutation games, random games.

The Morris string sigma labels a dual cyclic polytope whose pivot paths
grow exponentially with the dimension; the triple variant (sigma tau sigma)
widens the game to m x 3m so that support guessing is hard as well, while
keeping the same path lengths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cyclic import cyclic_geometry, to_canonical_form
from .errors import GaleLemkeError
from .gale import LabeledGalePolytope
from .game import (
    NONDEGENERACY_MAX_LABELS,
    ONE,
    ZERO,
    BimatrixGame,
    MixedProfile,
    UnitVectorGame,
    as_integer,
    imitation_game,
    is_nondegenerate,
)

RANDOM_GAME_RETRIES = 50


def morris_tau(m: int) -> tuple[int, ...]:
    """The string 1, 3, 2, 5, 4, ..., m: interior entries swap in adjacent
    pairs (i -> i + (-1)^i), the two boundary entries stay put."""
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be even and at least 2, got {m}")
    out = [1]
    for i in range(2, m):
        out.append(i + (-1) ** i)
    out.append(m)
    return tuple(out)


def morris_sigma(m: int) -> tuple[int, ...]:
    """morris_tau reversed; the hard labeling of the cyclic polytope."""
    return tuple(reversed(morris_tau(m)))


def morris_polytope(m: int) -> LabeledGalePolytope:
    return LabeledGalePolytope(m, morris_sigma(m))


def triple_morris_polytope(m: int) -> LabeledGalePolytope:
    """Labeled polytope on 4m facets with label string sigma tau sigma."""
    sigma = morris_sigma(m)
    return LabeledGalePolytope(m, sigma + morris_tau(m) + sigma)


def _unit_vector_game_from_polytope(poly: LabeledGalePolytope) -> UnitVectorGame:
    geom = cyclic_geometry(poly.m, poly.f)
    canon = to_canonical_form(geom)
    return UnitVectorGame(poly.m, poly.ell, canon.b)


def morris_game(m: int) -> UnitVectorGame:
    """The m x m unit-vector game of the singly-labeled polytope."""
    return _unit_vector_game_from_polytope(morris_polytope(m))


def triple_morris_game(m: int) -> UnitVectorGame:
    """The m x 3m unit-vector game of the tripled labeling.

    Every equilibrium has full support for the row player, and there are
    3^(m/2) of them, an exponentially small fraction of the possible column
    supports.
    """
    return _unit_vector_game_from_polytope(triple_morris_polytope(m))


def shuffle_columns(u: UnitVectorGame, seed: int) -> UnitVectorGame:
    """Apply one random column permutation to ell and B together, hiding
    the construction order from support-guessing heuristics."""
    rng = random.Random(seed)
    order = list(range(u.n))
    rng.shuffle(order)
    ell = tuple(u.ell[j] for j in order)
    b = tuple(tuple(row[j] for j in order) for row in u.b)
    return UnitVectorGame(u.m, ell, b)


# ---------------------------------------------------------------------------
# Permutation games


@dataclass(frozen=True)
class PermutationGameSpec:
    """The game (I, I^pi): row i's best response is column i, and column
    pi(i) is the best response to row i."""

    n: int
    pi: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if any(type(v) is not int for v in self.pi) or sorted(self.pi) != list(range(1, self.n + 1)):
            raise ValueError("pi must be a permutation of 1..n")

    @classmethod
    def of(cls, pi) -> "PermutationGameSpec":
        pi = tuple(map(as_integer, pi))
        return cls(len(pi), pi)

    def cycles(self) -> list[frozenset[int]]:
        remaining = set(range(1, self.n + 1))
        out = []
        while remaining:
            i = min(remaining)
            cycle = set()
            while i not in cycle:
                cycle.add(i)
                i = self.pi[i - 1]
            remaining -= cycle
            out.append(frozenset(cycle))
        return out


def permutation_game(spec: PermutationGameSpec) -> BimatrixGame:
    n = spec.n
    return imitation_game([[int(spec.pi[j] == i + 1) for j in range(n)] for i in range(n)])


def permutation_equilibria(spec: PermutationGameSpec) -> list[MixedProfile]:
    """One equilibrium per nonempty union of cycles: both players mix
    uniformly over it.  2^k - 1 equilibria for k cycles."""
    cycles = spec.cycles()
    out = []
    for mask in range(1, 1 << len(cycles)):
        support: set[int] = set()
        for c, cycle in enumerate(cycles):
            if mask >> c & 1:
                support |= cycle
        weight = ONE / len(support)
        x = tuple(weight if i + 1 in support else ZERO for i in range(spec.n))
        out.append(MixedProfile(x, x))
    return sorted(out, key=lambda p: (p.x, p.y))


def random_permutation(n: int, seed: int) -> PermutationGameSpec:
    """Uniform permutation from a seeded shuffle."""
    rng = random.Random(seed)
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return PermutationGameSpec(n, tuple(values))


# ---------------------------------------------------------------------------
# Seeded random games


def random_game(
    m: int,
    n: int,
    seed: int,
    payoff_range: tuple[int, int] = (0, 999),
    filter_degenerate: bool = True,
) -> BimatrixGame:
    """Integer-payoff game drawn uniformly from the range, rejecting
    degenerate draws.

    Within the budget of the exact check (m+n <= NONDEGENERACY_MAX_LABELS)
    degeneracy is checked exactly and degenerate draws are redrawn up to
    RANDOM_GAME_RETRIES times.  Past the budget the check is skipped and the
    range keeps its low end but is widened upwards to at least a million
    values, which makes degeneracy merely improbable, not impossible.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    lo, hi = payoff_range
    if lo > hi:
        raise ValueError("empty payoff range")
    check = filter_degenerate and m + n <= NONDEGENERACY_MAX_LABELS
    if filter_degenerate and not check:
        hi = max(hi, lo + 10**6)
    rng = random.Random(seed)
    for _ in range(RANDOM_GAME_RETRIES):
        a = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        b = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        game = BimatrixGame.from_rows(a, b)
        if not check or is_nondegenerate(game):
            return game
    raise GaleLemkeError(
        f"no nondegenerate draw in {RANDOM_GAME_RETRIES} attempts for seed {seed}; "
        "widen the payoff range"
    )
