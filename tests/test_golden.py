"""Golden outputs of the exact engines.

Each digest is a SHA-256 of a canonical text form of solver output on a
fixed instance set: LH paths and equilibria (with the exception type and
message where a walk fails), randomized support search profiles and guess
counts, support enumeration, vertex enumeration and the nondegeneracy
check.  The digests were recorded on the rational (``Fraction``) tableau
and per-guess rescaling implementation; any change of arithmetic must
leave every one of them unchanged.

The ``gale_*`` digests pin the bitstring engine: every step of the
combinatorial Lemke paths (dropped label, picked label, vertex bits) on
Morris and triple-Morris polytopes and on seeded random labelings, the
exception type and message where a walk fails, streamed path lengths and
endpoints, single pivots and vertex enumeration.  They were recorded on
the run-stepping pivot implementation.

The ``cyclic_*`` and ``unit_vector_points`` digests pin the polytope
geometry: the canonical-form matrices of dual cyclic polytopes, the vertex
incidences of the geometric enumeration (incidences only, as a sorted list,
so neither the coordinates nor the order of the yielded points is fixed),
and the completely labeled points of unit-vector games with the equilibria
built from them.  They were recorded on the explicit-inverse canonical form
and the general-form vertex enumerator.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from galelemke import (
    AllColumnSubsets,
    BimatrixGame,
    LabeledGalePolytope,
    OnePerLabelClass,
    combinatorial_lemke,
    completely_labeled_strings,
    cyclic_geometry,
    enumerate_equilibria,
    enumerate_gale_vertices,
    gale_pivot,
    geometry_vertex_strings,
    imitation_game,
    is_nondegenerate,
    lemke_path_length,
    lemke_path_on_unit_vector_game,
    lh_solve,
    morris_game,
    morris_polytope,
    random_game,
    randomized_support_search,
    to_canonical_form,
    triple_morris_game,
    triple_morris_polytope,
)
from galelemke.errors import GaleLemkeError
from galelemke.game import (
    equilibrium_from_labeled_point,
    p_vertices,
    q_vertices,
    unit_vector_completely_labeled_points,
)

from conftest import C_DEGENERATE, C_THREE_EQ


def _canon(obj):
    """Text form independent of set iteration order."""
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(_canon(v) for v in obj)) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in obj) + ")"
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return repr(obj)


def _digest(records) -> str:
    return hashlib.sha256(_canon(records).encode()).hexdigest()


def _path_record(path):
    return (
        path.missing_label,
        path.start,
        tuple((s.dropped, s.picked, s.vertex, s.system) for s in path.steps),
    )


def _lh_record(game, label, **kwargs):
    try:
        result = lh_solve(game, label, **kwargs)
    except GaleLemkeError as exc:
        return ("error", type(exc).__name__, str(exc))
    eq = result.equilibrium
    return ("ok", _path_record(result.path), eq.x, eq.y)


def _all_labels(game, **kwargs):
    return [_lh_record(game, k, **kwargs) for k in range(1, game.m + game.n + 1)]


def _degenerate_games():
    games = [imitation_game(C_DEGENERATE)]
    games += [
        random_game(4, 4, seed, payoff_range=(0, 2), filter_degenerate=False)
        for seed in range(12)
    ]
    # these cycle when the lexicographic rule is off
    games += [
        random_game(m, m, seed, payoff_range=(0, 2), filter_degenerate=False)
        for m, seed in ((3, 372), (4, 148), (4, 223), (5, 19), (5, 24))
    ]
    return games


def _rational_game(m, n, seed):
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    return BimatrixGame.from_rows(
        [[entry() for _ in range(n)] for _ in range(m)],
        [[entry() for _ in range(n)] for _ in range(m)],
    )


def _rational_games():
    return [_rational_game(3, 4, s) for s in range(4)] + [_rational_game(4, 3, 10 + s) for s in range(3)]


def _oracle_games():
    return (
        [imitation_game(C_THREE_EQ), imitation_game(C_DEGENERATE)]
        + [random_game(3, 3, s) for s in range(3)]
        + [random_game(3, 4, s, payoff_range=(0, 3), filter_degenerate=False) for s in range(4)]
        + _rational_games()[:3]
        + [triple_morris_game(2).to_bimatrix(), morris_game(4).to_bimatrix()]
    )


def _gale_path_record(poly, label, step_cap=None):
    try:
        path = combinatorial_lemke(poly, label, step_cap)
    except (GaleLemkeError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    steps = tuple((s.dropped, s.picked, s.vertex.f, s.vertex.bits) for s in path.steps)
    return ("ok", path.missing_label, path.start.f, path.start.bits, steps)


def _gale_stream_record(poly, label, step_cap=None):
    try:
        length, end = lemke_path_length(poly, label, step_cap)
    except (GaleLemkeError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", length, end.f, end.bits)


def _gale_all_labels(poly, record=_gale_path_record):
    return [record(poly, k) for k in range(1, poly.m + 1)]


def _gale_failures(poly, record):
    """Labels out of range and a cap a few pivots short of each path."""
    out = [record(poly, k) for k in (0, poly.m + 1)]
    for k in range(1, poly.m + 1):
        out += [record(poly, k, cap) for cap in (0, 1, 3)]
    return out


def _morris_polytopes():
    return [build(m) for build in (morris_polytope, triple_morris_polytope) for m in range(2, 17, 2)]


def _random_labelings():
    """Seeded label strings, short and long; half of them draw from a few
    labels only, so long runs of one repeated label are common."""
    polys = []
    for seed in range(60):
        rng = random.Random(seed)
        m = rng.choice([2, 4, 6, 8])
        n = rng.randint(1, 3 * m)
        pool = rng.sample(range(1, m + 1), rng.randint(1, 2)) if seed % 2 else range(1, m + 1)
        polys.append(LabeledGalePolytope.of(m, [rng.choice(pool) for _ in range(n)]))
    return polys


def _cyclic_geometries():
    geoms = [cyclic_geometry(m, f) for m in range(2, 13, 2) for f in sorted({m + 1, 2 * m, 4 * m})]
    geoms.append(cyclic_geometry(2, 5, t=["-2", "1/3", "5", "7", "19/2"]))
    geoms.append(cyclic_geometry(4, 9, t=["-3", "-1/2", "0", "2/7", "1", "5/3", "4", "9", "11"]))
    return geoms


GOLDEN = {
    "lh_triple_morris": "b67fcbed48823629df5c3c39035560b13acc085cb89791e2a54cdb6adfc2558b",
    "lh_degenerate_lex": "5f9092e1d07aeaaa61f15c0f01d3493403b2e32c71b765e1a407a14b97589df9",
    "lh_degenerate_nolex": "acd63d83fd070ee60ae5115e2eef297cc611db8aee2bd504310588655df8efbf",
    "lh_degenerate_strict": "3ebb28c6c7198828d59cd89867080b724db20decf6d99c6964627f4d3a27e769",
    "lh_rational": "3da7dbdf23bc1fe0700bce2df1674c53793228173b5d5411f6540256608b0b1c",
    "lh_random": "949963e9c485228d4e29acf55f96b7ddbcb5214e92146d27070b9f4c559b29ea",
    "unit_vector_paths": "8f1b7c4a5b51022ea01e246431dc12d164311adca67887d42c1dbab245da74c2",
    "support_search": "bb3c5f316e20272f6a525568f278d3f869eaa8995e8bfe9930815401db47b2c3",
    "support_enumeration": "e39bedad95af733f62ae04a64bb86c40e32c8e2f06e2a75e49c3a74a4519e217",
    "vertex_enumeration": "98929ce0b10628de8986a56859bb9318aa6f3f645543be9e65695a40ac1c8d22",
    "gale_morris_paths": "b7184cd6f2c0ce2d9d7b2d298c3062a966a55ff08e9a20cabe3fd70c4aec8752",
    "gale_random_paths": "d4c7200943b750096b3c16ed84bbc1247d91e6df8ee82deaabd0445ec249b1cd",
    "gale_stream": "f8740cf5e0c74c77e264bac4fc640762f5603cf9db070fd3630089b016af5327",
    "gale_pivots": "be69ebadf1ccd7bbe4ff23a2f1ee8943bc192128a8f86418ac0a2e96dc69e32b",
    "gale_vertices": "e82bc5bff7dd8f8f87c40470da2abb2fe853287f5468f6cf2cb7b2caeef6f0b5",
    "cyclic_canonical_b": "6ab91fd92268f30c61eef14739db6246ea1fed3d72e18b19fd00423e5166f897",
    "cyclic_incidences": "71cb66007f12b1a06bb9249c8c54327e2480d72b1626bf02813c93cdd079ddc0",
    "unit_vector_points": "836f796ba3ec3bb75b56559b97f210f5d9a93eac330b3135b953b8d83d039ece",
}


def _outputs(name):
    if name == "lh_triple_morris":
        return [_all_labels(triple_morris_game(m).to_bimatrix()) for m in (4, 6, 8)]
    if name == "lh_degenerate_lex":
        return [_all_labels(g) for g in _degenerate_games()]
    if name == "lh_degenerate_nolex":
        return [_all_labels(g, lexicographic=False) for g in _degenerate_games()]
    if name == "lh_degenerate_strict":
        return [_all_labels(g, expect_nondegenerate=True) for g in _degenerate_games()]
    if name == "lh_rational":
        return [_all_labels(g) for g in _rational_games()]
    if name == "lh_random":
        return [_all_labels(random_game(4, 5, s)) for s in range(6)]
    if name == "unit_vector_paths":
        return [
            [_path_record(lemke_path_on_unit_vector_game(u, k)) for k in range(1, u.m + u.n + 1)]
            for u in (triple_morris_game(4), triple_morris_game(6), morris_game(6))
        ]
    if name == "support_search":
        out = []
        for m in (4, 6):
            u = triple_morris_game(m)
            game = u.to_bimatrix()
            for universe in (AllColumnSubsets(game), OnePerLabelClass(u)):
                for seed in range(6):
                    profile, stats = randomized_support_search(game, universe, seed)
                    out.append((m, universe.name, seed, profile.x, profile.y, stats.guesses))
        return out
    if name == "support_enumeration":
        return [[(p.x, p.y) for p in enumerate_equilibria(g)] for g in _oracle_games()]
    if name == "vertex_enumeration":
        return [
            (list(p_vertices(g)), list(q_vertices(g)), is_nondegenerate(g))
            for g in _oracle_games()
        ]
    if name == "gale_morris_paths":
        return [_gale_all_labels(poly) for poly in _morris_polytopes()]
    if name == "gale_random_paths":
        return [
            (poly.m, poly.ell, _gale_all_labels(poly), _gale_failures(poly, _gale_path_record))
            for poly in _random_labelings()
        ]
    if name == "gale_stream":
        return [
            (_gale_all_labels(poly, _gale_stream_record), _gale_failures(poly, _gale_stream_record))
            for poly in _morris_polytopes() + _random_labelings()
        ]
    if name == "gale_pivots":
        return [
            (s.bits, p, moved.bits, entered)
            for m, f in ((2, 3), (2, 7), (4, 5), (4, 9), (6, 7), (6, 11), (8, 12))
            for s in enumerate_gale_vertices(m, f)
            for p in s.ones()
            for moved, entered in [gale_pivot(s, p)]
        ]
    if name == "gale_vertices":
        return [
            [(s.f, s.bits) for s in enumerate_gale_vertices(m, f)]
            for m, f in ((2, 3), (2, 6), (4, 5), (4, 10), (6, 12), (8, 13), (10, 14))
        ] + [[(s.f, s.bits) for s in completely_labeled_strings(poly)] for poly in _random_labelings()[:20]]
    if name == "cyclic_canonical_b":
        return [(g.m, g.t, to_canonical_form(g).b) for g in _cyclic_geometries()]
    if name == "cyclic_incidences":
        return [
            (m, f, sorted(s.bits for _, s in geometry_vertex_strings(cyclic_geometry(m, f))))
            for m in (2, 4, 6)
            for f in range(m + 1, m + 7)
        ]
    if name == "unit_vector_points":
        out = []
        for u in (morris_game(4), morris_game(6), triple_morris_game(2), triple_morris_game(4)):
            for point, facets in unit_vector_completely_labeled_points(u):
                eq = equilibrium_from_labeled_point(u, point)
                out.append((u.m, u.ell, point, facets, eq.x, eq.y))
        return out
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert _digest(_outputs(name)) == GOLDEN[name]
