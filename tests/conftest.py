from fractions import Fraction

import pytest

from galelemke import BimatrixGame, MixedProfile, random_game


# A and B of the 3x3 unit-vector game used as the running worked example
WORKED_EXAMPLE = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 2, 4], [3, 2, 0], [0, 2, 0]])


@pytest.fixture
def game22() -> BimatrixGame:
    """The 3x3 unit-vector game used as the running worked example."""
    return BimatrixGame.from_rows(*WORKED_EXAMPLE)


@pytest.fixture
def game22_equilibrium() -> MixedProfile:
    return MixedProfile.of(["1/3", "2/3", 0], ["1/2", "1/2", 0])


# matrix whose transpose is B of game22; (C, C^T) has one symmetric and two
# non-symmetric equilibria
C_THREE_EQ = [[0, 3, 0], [2, 2, 2], [4, 0, 0]]

# degenerate variant: the mixed strategy (1/2, 1/2, 0) has three best responses
C_DEGENERATE = [[0, 4, 0], [2, 2, 2], [4, 0, 0]]


def gauss_jordan(matrix, rhs):
    """The Fraction reference of the exact kernels: the solution of
    ``matrix @ x = rhs`` by plain Gauss-Jordan, or None if singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(n):
        p = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[k])]
    return [row[n] for row in aug]


@pytest.fixture(scope="session")
def random_nondegenerate_games():
    """Small seeded nondegenerate games reused by slow oracle tests."""

    def build(count: int, m: int, n: int, base_seed: int = 0):
        return [random_game(m, n, base_seed + s) for s in range(count)]

    return build


def labels(*values) -> frozenset:
    return frozenset(values)
