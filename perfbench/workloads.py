"""The three workloads: instances built at set-up, and the ops of one pass.

Each op is one closed-loop request: it calls the program, then checks the
outputs with oracles that hold for every seed, and returns a fingerprint
payload that the runner compares against the stored one when the op's
inputs match a stored op.  ``payload[0]`` is always the op's main count
(path length or guess count), which is what ``PINNED`` checks.

Why these workloads (see README.md for the layer-to-metric table):

- gale-walk runs only the bitstring engine on long Morris paths: no
  arithmetic, so it shows per-pivot cost of ``gale`` and nothing else.
- triple-morris is the paper's family, hard for both exact engines at once:
  long tableau paths with growing rational coefficients, and a support
  universe in which equilibrium supports are rare.
- random-games makes many short calls on small integer games, so per-call
  set-up in ``lemke_howson``/``support``/``game`` dominates, not per-pivot
  speed; a change that trades one for the other shows here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from functools import partial
from math import comb
from pathlib import Path
from typing import Callable

GALE_STEP_CAP = 1_000_000
LH_STEP_CAP = 100_000

# ROADMAP baseline counts, checked on every seed: op id -> payload[0].
PINNED = {
    "gale-walk/self-check/morris/m28/k1": 275_806,
    "triple-morris/lh/m10/k1": 196,
    "triple-morris/self-check/lh/m12/k1": 476,
    "triple-morris/search/m8/seed0": 5_583,
}
UNIVERSE_M8 = 735_471  # C(24, 8) column supports of the 8 x 24 triple Morris game

RANDOM_SIZES = ((4, 4), (4, 5), (5, 5))
RANDOM_GAMES_PER_PASS = 100
M6_SEARCHES_PER_PASS = 20


class Mismatch(Exception):
    """An oracle rejected an op's output."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    id: str
    run: Callable  # run(api, counts) -> payload (a JSON-able list)


@dataclass
class Workload:
    ops: list[Op]  # one pass, timed
    checks: list[Op]  # run once after the timed passes, untimed


def morris_label1_length(m: int) -> int:
    """Closed form for the Morris label-1 path: L(2)=2, L(4)=6 and
    L(m) = 2 L(m-2) + L(m-4) + 2, verified for m = 6..28."""
    lengths = {2: 2, 4: 6}
    for k in range(6, m + 1, 2):
        lengths[k] = 2 * lengths[k - 2] + lengths[k - 4] + 2
    return lengths[m]


def profile_text(profile) -> str:
    return " ".join(map(str, profile.x)) + " ; " + " ".join(map(str, profile.y))


def digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _bits(profile) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in profile.x + profile.y)


def _max_into(counts, key: str, value: int) -> None:
    counts[key] = max(counts.get(key, 0), value)


# ---------------------------------------------------------------------------
# gale-walk


def _stream(poly, m: int, label: int, api, counts):
    length, end = api.lemke_path_length(poly, label, step_cap=GALE_STEP_CAP)
    counts["gale.stream_pivots"] += length
    expect(api.is_completely_labeled(poly, end), f"endpoint {end} is not completely labeled")
    if label == 1:
        expected = morris_label1_length(m)
        expect(length == expected, f"label-1 length {length} != recurrence {expected}")
    return [length, end.bits]


def _record(poly, m: int, label: int, api, counts):
    path = api.combinatorial_lemke(poly, label, step_cap=GALE_STEP_CAP)
    length = path.path_length
    counts["gale.record_pivots"] += length
    expect(api.is_completely_labeled(poly, path.endpoint), "recorded endpoint is not completely labeled")
    expect(path.steps[-1].picked == label, "recorded path does not pick up the missing label")
    if label == 1:
        expected = morris_label1_length(m)
        expect(length == expected, f"label-1 length {length} != recurrence {expected}")
    return [length, path.endpoint.bits]


def gale_walk(api, seed: int, workdir: Path) -> Workload:
    """Streaming walks on Morris and triple-Morris polytopes at m = 22, 24,
    every label, and recorded walks on Morris m = 16, 18, every label."""
    ops = []
    for m in (22, 24):
        for family, build in (("morris", api.morris_polytope), ("triple", api.triple_morris_polytope)):
            poly = build(m)
            ops += [
                Op(f"gale-walk/stream/{family}/m{m}/k{k}", partial(_stream, poly, m, k))
                for k in range(1, m + 1)
            ]
    for m in (16, 18):
        poly = api.morris_polytope(m)
        ops += [Op(f"gale-walk/record/morris/m{m}/k{k}", partial(_record, poly, m, k)) for k in range(1, m + 1)]
    checks = [Op("gale-walk/self-check/morris/m28/k1", partial(_stream, api.morris_polytope(28), 28, 1))]
    return Workload(ops, checks)


# ---------------------------------------------------------------------------
# triple-morris


@dataclass
class _TripleMorris:
    m: int
    uvg: object  # UnitVectorGame
    game: object  # BimatrixGame
    poly: object  # LabeledGalePolytope with the same labeling

    def target(self, label: int) -> int:
        """Single-polytope label walked by the product path for ``label``."""
        return label if label <= self.m else self.uvg.ell[label - self.m - 1]


def _lh(tm: _TripleMorris, label: int, api, counts):
    result = api.lh_solve(tm.game, label, step_cap=LH_STEP_CAP)
    counts["lemke_howson.pivots"] += result.path_length
    _max_into(counts, "lemke_howson.result_bits_max", _bits(result.equilibrium))
    expect(api.verify_equilibrium(tm.game, result.equilibrium), "LH endpoint fails the label cover")
    xs, _ = api.project_path(result)
    length, end = api.lemke_path_length(tm.poly, tm.target(label), step_cap=GALE_STEP_CAP)
    counts["gale.stream_pivots"] += length
    expect(len(xs) - 1 == length, f"projected P path has {len(xs) - 1} pivots, Gale path {length}")
    expect(xs[-1] == frozenset(end.ones()), "projected P endpoint differs from the Gale endpoint")
    return [result.path_length, digest([profile_text(result.equilibrium)])]


def _uvg(tm: _TripleMorris, label: int, api, counts):
    path = api.lemke_path_on_unit_vector_game(tm.uvg, label, step_cap=LH_STEP_CAP)
    length, end = api.lemke_path_length(tm.poly, label, step_cap=GALE_STEP_CAP)
    counts["gale.stream_pivots"] += length
    expect(path.path_length == length, f"unit-vector path has {path.path_length} pivots, Gale path {length}")
    expect(path.endpoint == frozenset(end.ones()), "unit-vector path endpoint differs from the Gale endpoint")
    return [path.path_length, sorted(path.endpoint)]


def _search(tm: _TripleMorris, universe, seed: int, api, counts):
    profile, stats = api.randomized_support_search(tm.game, universe, seed)
    counts["support.guesses"] += stats.guesses
    expect(api.verify_equilibrium(tm.game, profile), "search result fails the label cover")
    expect(stats.universe_size == comb(tm.uvg.n, tm.m), "universe size is not C(n, m)")
    expect(1 <= stats.guesses <= stats.universe_size, "guess count outside 1..|U|")
    if tm.m == 8:
        expect(stats.universe_size == UNIVERSE_M8, f"m=8 universe has {stats.universe_size} supports")
    return [stats.guesses, digest([profile_text(profile)])]


def triple_morris(api, seed: int, workdir: Path) -> Workload:
    """lh_solve on every label at m = 6, 8 and on labels 1..m at m = 10,
    unit-vector walks on labels 1..m at m = 6, 8, and randomized support
    searches at m = 6 (seeds 0..19) and m = 8 (seed 0, pinned).

    A search's guess count, and so its time, varies tenfold with its seed,
    and the m = 6 searches fall around the op-latency median: timed
    searches with seeds drawn per run would move wall_s and op_ms.p50 by
    more than their bounds.  So the timed searches use fixed seeds, and the
    searches whose seeds the workload seed draws (one at m = 6, one at
    m = 8) run once per run as untimed checks.
    """
    games = {}
    for m in (6, 8, 10, 12):
        uvg = api.triple_morris_game(m)
        games[m] = _TripleMorris(m, uvg, api.to_bimatrix(uvg), api.triple_morris_polytope(m))
    ops = []
    for m, labels in ((6, range(1, 25)), (8, range(1, 33)), (10, range(1, 11))):
        ops += [Op(f"triple-morris/lh/m{m}/k{k}", partial(_lh, games[m], k)) for k in labels]
    for m in (6, 8):
        ops += [Op(f"triple-morris/uvg/m{m}/k{k}", partial(_uvg, games[m], k)) for k in range(1, m + 1)]
    universes = {m: api.AllColumnSubsets(games[m].game) for m in (6, 8)}
    ops += [
        Op(f"triple-morris/search/m6/seed{s}", partial(_search, games[6], universes[6], s))
        for s in range(M6_SEARCHES_PER_PASS)
    ]
    ops.append(Op("triple-morris/search/m8/seed0", partial(_search, games[8], universes[8], 0)))
    rng = random.Random(f"triple-morris:{seed}")
    checks = [Op("triple-morris/self-check/lh/m12/k1", partial(_lh, games[12], 1))]
    for m in (6, 8):
        s = rng.randrange(2**31)
        checks.append(Op(f"triple-morris/seeded-search/m{m}/seed{s}", partial(_search, games[m], universes[m], s)))
    return Workload(ops, checks)


# ---------------------------------------------------------------------------
# random-games


def _random_game(m: int, n: int, game_seed: int, game_file: Path, api, counts):
    game = api.random_game(m, n, game_seed)
    text = api.write_bgame(game)
    expect(api.read_bgame(text) == game, ".bgame round trip changed the game")
    counts["gameio.bytes"] += 2 * len(text.encode())

    equilibria = api.enumerate_equilibria(game)
    counts["support.enum_pairs"] += sum(comb(m, k) * comb(n, k) for k in range(1, min(m, n) + 1))
    counts["support.enum_found"] += len(equilibria)
    for profile in equilibria:
        expect(api.verify_equilibrium(game, profile), "enumerated profile fails the label cover")
    found = set(equilibria)

    lengths = []
    for label, result in api.lh_all_labels(game, step_cap=LH_STEP_CAP):
        counts["lemke_howson.pivots"] += result.path_length
        _max_into(counts, "lemke_howson.result_bits_max", _bits(result.equilibrium))
        expect(result.equilibrium in found, f"LH endpoint for label {label} is not an enumerated equilibrium")
        lengths.append(result.path_length)

    expect(api.equilibria_by_vertex_enumeration(game) == equilibria, "support and vertex enumeration differ")

    game_file.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.main(["solve", str(game_file), "--method", "support", "--seed", str(game_seed)])
    expect(code == 0, f"cli solve exited with {code}")
    lines = out.getvalue().splitlines()
    expect(len(lines) == 2 and lines[1].startswith("guesses "), f"unexpected cli output {lines!r}")
    counts["gameio.bytes"] += len(lines[0].encode())
    profile = api.parse_profile(lines[0], m, n)
    expect(api.verify_equilibrium(game, profile), "cli profile fails the label cover")
    expect(profile in found, "cli profile is not an enumerated equilibrium")
    guesses = int(lines[1].split()[1])
    return [guesses, digest(profile_text(p) for p in equilibria), lengths]


def random_games(api, seed: int, workdir: Path) -> Workload:
    """Seeded 4x4, 4x5 and 5x5 games with payoffs 0..999; each op draws one
    game and runs every solver and oracle on it."""
    rng = random.Random(f"random-games:{seed}")
    game_file = workdir / "random-game.bgame"
    ops = []
    for i in range(RANDOM_GAMES_PER_PASS):
        m, n = RANDOM_SIZES[i % len(RANDOM_SIZES)]
        s = rng.randrange(2**31)
        ops.append(Op(f"random-games/{m}x{n}/{i}/seed{s}", partial(_random_game, m, n, s, game_file)))
    return Workload(ops, [])


WORKLOADS = {
    "gale-walk": gale_walk,
    "triple-morris": triple_morris,
    "random-games": random_games,
}
