"""Exact equilibrium computation for bimatrix games.

Complementary pivoting and support enumeration over arbitrary-precision
rationals, a combinatorial pivot engine on dual-cyclic-polytope bitstrings
that cross-validates the geometric solver, and generators for instance
families whose paths and support searches grow exponentially.
"""

from .errors import (
    BudgetExceededError,
    DegenerateGameError,
    GaleLemkeError,
    GameFormatError,
    InvariantError,
    NoEquilibriumError,
    StepCapExceededError,
)
from .game import (
    BimatrixGame,
    MixedProfile,
    UnitVectorGame,
    as_fraction,
    as_integer,
    equilibria_by_vertex_enumeration,
    imitation_game,
    is_nondegenerate,
    labels_of_profile,
    split_symmetric_profile,
    symmetric_profile,
    symmetrize,
    verify_equilibrium,
)
from .gale import (
    GaleString,
    LabeledGalePolytope,
    combinatorial_lemke,
    completely_labeled_strings,
    enumerate_gale_vertices,
    euler_matchings,
    gale_pivot,
    lemke_path_length,
    matching_string,
)
from .cyclic import (
    CanonicalForm,
    CyclicPolytopeGeometry,
    cyclic_geometry,
    geometry_vertex_strings,
    to_canonical_form,
)
from .lemke_howson import (
    LhResult,
    lemke_path_on_unit_vector_game,
    lh_all_labels,
    lh_solve,
    path_to_csv,
    project_path,
)
from .paths import PivotPath, PivotStep
from .generators import (
    PermutationGameSpec,
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
)
from .support import (
    AllColumnSubsets,
    OnePerLabelClass,
    SearchStats,
    count_equilibrium_supports,
    enumerate_equilibria,
    expected_guesses,
    randomized_support_search,
    search_equal_supports,
    solve_support,
)

__version__ = "0.1.0"
