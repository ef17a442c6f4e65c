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


@pytest.fixture(scope="session")
def random_nondegenerate_games():
    """Small seeded nondegenerate games reused by slow oracle tests."""

    def build(count: int, m: int, n: int, base_seed: int = 0):
        return [random_game(m, n, base_seed + s) for s in range(count)]

    return build


def labels(*values) -> frozenset:
    return frozenset(values)
