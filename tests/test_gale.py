"""Bitstring combinatorics: evenness, pivoting, paths, matchings."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelemke import (
    GaleString,
    LabeledGalePolytope,
    combinatorial_lemke,
    completely_labeled_strings,
    enumerate_gale_vertices,
    euler_matchings,
    gale_pivot,
    lemke_path_length,
    matching_string,
    morris_polytope,
    triple_morris_polytope,
)
from galelemke.errors import BudgetExceededError, DegenerateGameError, InvariantError, StepCapExceededError
from galelemke.gale import _cyclic_runs_even, _gale_step
from galelemke.paths import DEFAULT_STEP_CAP, PivotStep, walk


def brute_force_gale(m, f):
    """Independent oracle: filter all C(f, m) position sets by rotating each
    string to a zero boundary and splitting it into maximal runs."""
    valid = []
    for ones in itertools.combinations(range(f), m):
        bits = "".join("1" if i in ones else "0" for i in range(f))
        if "0" not in bits:
            continue
        z = bits.index("0")
        rotated = bits[z + 1 :] + bits[: z + 1]  # every run now cyclic-interior
        if all(len(run) % 2 == 0 for run in rotated.split("0") if run):
            valid.append(bits)
    return sorted(valid)


class TestEvenness:
    def test_accepts_plain_runs(self):
        assert GaleString.from_text("1100").ones() == (1, 2)
        assert GaleString.from_text("1001").ones() == (1, 4)  # wrap-around run

    def test_rejects_odd_interior_run(self):
        for text in ("1010", "010100", "01110010"):
            with pytest.raises(ValueError, match="odd interior run of ones"):
                GaleString.from_text(text)

    def test_odd_ones_rejected(self):
        with pytest.raises(ValueError, match="number of ones must be even, got 3"):
            GaleString.from_text("1110")

    @pytest.mark.parametrize("m,f,count", [(2, 4, 4), (4, 6, 9)])
    def test_counts(self, m, f, count):
        assert len(enumerate_gale_vertices(m, f)) == count
        assert len(brute_force_gale(m, f)) == count


class TestEnumeration:
    @pytest.mark.parametrize("m,f", [(2, 4), (2, 8), (4, 8), (4, 10), (6, 10)])
    def test_matches_brute_force(self, m, f):
        ours = [str(s).replace(".", "0") for s in enumerate_gale_vertices(m, f)]
        assert ours == brute_force_gale(m, f)

    def test_lexicographic_order(self):
        texts = [str(s).replace(".", "0") for s in enumerate_gale_vertices(4, 8)]
        assert texts == sorted(texts)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_simplex_like_count(self, m):
        assert len(enumerate_gale_vertices(m, m + 1)) == m + 1

    def test_start_vertex_present(self):
        strings = enumerate_gale_vertices(4, 10)
        assert GaleString.from_text("1111000000") in strings

    def test_invalid_string_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            GaleString.from_text("1010")
        with pytest.raises(ValueError):
            GaleString.from_text("1110")

    def test_enumeration_budget(self, monkeypatch):
        # (2, 6) has 6 vertex strings
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 5)
        with pytest.raises(BudgetExceededError):
            enumerate_gale_vertices(2, 6)
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 6)
        assert len(enumerate_gale_vertices(2, 6)) == 6

    def test_long_strings_enumerate_without_recursion(self):
        # one string per pair start: a walk over positions would recurse f deep
        strings = enumerate_gale_vertices(2, 1100)
        assert len(strings) == 1100
        assert str(strings[-1]) == "11" + "." * 1098

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_closed_form_count(self, m):
        k = m // 2
        for f in range(m + 1, 15):
            count = f * math.comb(f - k, k) // (f - k)
            assert len(enumerate_gale_vertices(m, f)) == count == len(brute_force_gale(m, f))

    def test_over_budget_call_builds_no_string(self, monkeypatch):
        built = []
        monkeypatch.setattr("galelemke.gale.GaleString", lambda f, bits: built.append(bits))
        with pytest.raises(BudgetExceededError, match="2288455040 vertex strings"):
            enumerate_gale_vertices(10, 200)
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 103)
        with pytest.raises(BudgetExceededError):
            completely_labeled_strings(triple_morris_polytope(4))  # 104 vertex strings
        assert built == []


def test_evenness_check_matches_the_run_scan():
    # every mask of every length up to 12, against the maximal runs read
    # from a zero as in brute_force_gale
    for f in range(1, 13):
        for bits in range(1 << f):
            text = "".join("1" if bits >> i & 1 else "0" for i in range(f))
            z = text.find("0")
            runs = (text[z + 1 :] + text[: z + 1]).split("0") if z >= 0 else []
            assert _cyclic_runs_even(bits, f) == all(len(run) % 2 == 0 for run in runs), text


class TestPivot:
    def test_small_examples(self):
        s, entered = gale_pivot(GaleString.from_text("1100"), 1)
        assert str(s) == ".11." and entered == 3
        s, entered = gale_pivot(GaleString.from_text("0110"), 2)
        assert str(s) == "..11" and entered == 4

    def test_pivot_back_returns_home(self):
        for text in ("1100", "0110", "1001"):
            start = GaleString.from_text(text)
            for p in start.ones():
                moved, entered = gale_pivot(start, p)
                back, re_entered = gale_pivot(moved, entered)
                assert back == start and re_entered == p

    @pytest.mark.parametrize("m,extra", [(2, 8), (4, 8), (6, 8)])
    def test_two_completion_property(self, m, extra):
        # for every vertex and dropped position exactly two completions
        # exist, and the pivot returns the one that is not the vertex itself
        for f in range(m + 1, m + extra + 1):
            strings = enumerate_gale_vertices(m, f)
            universe = {s.bits for s in strings}
            for s in strings:
                for p in s.ones():
                    without = s.bits & ~(1 << (p - 1))
                    completions = [
                        q
                        for q in range(f)
                        if not without >> q & 1 and without | 1 << q in universe
                    ]
                    assert len(completions) == 2, (str(s), p)
                    moved, entered = gale_pivot(s, p)
                    assert moved.bits in universe
                    assert entered - 1 in completions and entered != p


def reference_pivot_bits(bits, f, p0):
    """Independent pivot rule: step to both ends of the cyclic run holding
    p0, then extend the odd fragment at its far end."""
    start = p0
    while bits >> ((start - 1) % f) & 1:
        start = (start - 1) % f
    end = p0
    while bits >> ((end + 1) % f) & 1:
        end = (end + 1) % f
    length = (end - start) % f + 1
    if (p0 - start) % f % 2 == 1:
        q0 = (start - 1) % f
    else:
        q0 = (start + length) % f
    return (bits & ~(1 << p0)) | (1 << q0), q0


@st.composite
def gale_even_strings(draw, max_f=70):
    """A Gale-even string with 2 <= m < f: pairs of ones and single zeros
    in any order, rotated so a run may wrap past position f."""
    f = draw(st.integers(3, max_f))
    pairs = draw(st.integers(1, (f - 1) // 2))
    blocks = draw(st.permutations([1] * pairs + [0] * (f - 2 * pairs)))
    text = "".join("11" if block else "0" for block in blocks)
    shift = draw(st.integers(0, f - 1))
    return GaleString.from_text(text[shift:] + text[:shift])


class TestPivotProperties:
    @settings(max_examples=300, deadline=None)
    @given(gale_even_strings())
    @example(GaleString.from_text("1..111"))  # run wraps past position f
    @example(GaleString.from_text("11.1111.11"))  # m = f - 2
    @example(GaleString.from_text("111..11111"))  # m = f - 2, wrapping
    @example(GaleString.from_text("1...111"))  # odd f, run wraps: dropping 1 enters 4
    def test_matches_run_stepping_reference(self, s):
        for p in s.ones():
            q0 = _gale_step(s.f)(s.bits, p - 1)
            bits = s.bits ^ 1 << (p - 1) | 1 << q0
            assert (bits, q0) == reference_pivot_bits(s.bits, s.f, p - 1)

    @settings(max_examples=300, deadline=None)
    @given(gale_even_strings())
    @example(GaleString.from_text("1..111"))
    @example(GaleString.from_text("111..11111"))
    @example(GaleString.from_text("1...111"))
    def test_pivot_is_an_involution(self, s):
        for p in s.ones():
            moved, entered = gale_pivot(s, p)
            assert GaleString(moved.f, moved.bits) == moved  # still Gale-even
            assert gale_pivot(moved, entered) == (s, p)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda half: st.tuples(
            st.just(2 * half),
            st.lists(st.integers(1, 2 * half), min_size=1, max_size=6 * half),
        )
    ))
    def test_walked_vertices_pass_the_checked_constructor(self, labeling):
        m, ell = labeling
        poly = LabeledGalePolytope.of(m, ell)
        for k in range(1, m + 1):
            path = combinatorial_lemke(poly, k)
            for v in path.vertices():
                assert GaleString(v.f, v.bits) == v
            _, end = lemke_path_length(poly, k)
            assert GaleString(end.f, end.bits) == end == path.endpoint


class TestLemkePaths:
    def test_two_dimensional_path(self):
        poly = LabeledGalePolytope.of(2, "21")
        path = combinatorial_lemke(poly, 1)
        assert [str(v) for v in path.vertices()] == ["11..", ".11.", "..11"]
        assert path.path_length == 2
        assert path.label_sequence() == [(1, 2), (2, 1)]

    def test_first_steps_match_figure_walkthrough(self):
        path = combinatorial_lemke(morris_polytope(6), 1)
        vertices = path.vertices()
        assert str(vertices[0]) == "111111......"
        assert str(vertices[1]) == ".111111....."
        assert str(vertices[2]) == ".1111.11...."
        assert path.steps[0].dropped == 1 and path.steps[0].picked == 6
        assert path.steps[1].picked == 4

    def test_wrap_around_for_even_missing_label(self):
        path = combinatorial_lemke(morris_polytope(6), 4)
        assert str(path.vertices()[1]) == "111.11.....1"
        assert path.steps[0].picked == 1

    def test_triple_same_length_as_single(self):
        for m in (2, 4, 6):
            single, _ = lemke_path_length(morris_polytope(m), 1)
            triple, _ = lemke_path_length(triple_morris_polytope(m), 1)
            assert single == triple

    def test_endpoint_completely_labeled_and_distinct(self):
        for m in (2, 4, 6, 8):
            poly = morris_polytope(m)
            for k in range(1, m + 1):
                path = combinatorial_lemke(poly, k)
                assert poly.is_completely_labeled(path.endpoint)
                assert path.endpoint != path.start
                assert path.steps[0].dropped == k
                assert path.steps[-1].picked == k

    def test_no_revisits(self):
        for m in (4, 6, 8):
            path = combinatorial_lemke(morris_polytope(m), 1)
            vertices = path.vertices()
            assert len(vertices) == len(set(vertices))

    def test_hand_derived_lengths(self):
        # worked out by hand with the completion rule
        assert lemke_path_length(morris_polytope(2), 1)[0] == 2
        assert lemke_path_length(morris_polytope(4), 1)[0] == 6
        assert lemke_path_length(morris_polytope(4), 2)[0] == 4

    def test_morris_lengths_in_closed_form(self):
        # Morris (1994): label k <= m/2 walks L(m - 2j) + L(2j) pivots with
        # j = k // 2, L(0) = 0 and L(m) = H_{m/2+1} - 1 over the
        # half-companion Pell numbers H = 1, 1, 3, 7, 17, 41, ...; the list
        # over labels is symmetric under k <-> m+1-k, and triple Morris
        # walks the same list
        pell = [1, 1]
        while len(pell) < 12:
            pell.append(2 * pell[-1] + pell[-2])

        def whole(m):
            return pell[m // 2 + 1] - 1 if m else 0

        for m in range(4, 21, 2):
            lengths = [lemke_path_length(morris_polytope(m), k)[0] for k in range(1, m + 1)]
            halves = [(m - 2 * (k // 2), 2 * (k // 2)) for k in range(1, m // 2 + 1)]
            assert lengths[: m // 2] == [whole(a) + whole(b) for a, b in halves]
            assert lengths == lengths[::-1]
            if m <= 12:
                triple = [lemke_path_length(triple_morris_polytope(m), k)[0] for k in range(1, m + 1)]
                assert triple == lengths

    def test_step_cap(self):
        with pytest.raises(StepCapExceededError) as info:
            lemke_path_length(morris_polytope(10), 1, step_cap=5)
        assert info.value.steps_taken == 5
        with pytest.raises(StepCapExceededError):
            combinatorial_lemke(morris_polytope(10), 1, step_cap=5)

    def test_missing_label_out_of_range(self):
        poly = morris_polytope(4)
        for k in (0, poly.m + 1):
            with pytest.raises(ValueError, match="out of range"):
                combinatorial_lemke(poly, k)
            with pytest.raises(ValueError, match="out of range"):
                lemke_path_length(poly, k)


def scripted_step(entered):
    """A pivot step that returns the given positions in turn and records
    the (bits, dropped position) it was called with."""
    calls, script = [], iter(entered)

    def step(bits, p):
        calls.append((bits, p))
        return next(script)

    return step, calls


def seeded_polytope(m, n, seed):
    rng = random.Random(seed)
    return LabeledGalePolytope.of(m, [rng.randint(1, m) for _ in range(n)])


class TestPivotDriver:
    # positions 0..3 carry labels 1, 2, 2, 1; positions 0 and 1 start tight
    LABELS = (1, 2, 2, 1)

    def test_driver_applies_each_pivot_to_the_mask(self):
        step, calls = scripted_step([2, 3])
        steps = []
        # drop 0 (label 1), enter 2 (label 2); drop 1, the other tight 2; enter 3 (label 1)
        assert walk(self.LABELS, 0b0011, 1, step, DEFAULT_STEP_CAP, steps) == (2, 0b1100)
        assert calls == [(0b0011, 0), (0b0110, 1)]
        assert steps == [(1, 2, 0b0011 ^ 1 << 0 | 1 << 2), (2, 1, 0b0110 ^ 1 << 1 | 1 << 3)]
        assert all(type(s) is PivotStep for s in steps)

    @pytest.mark.parametrize(
        "labels, start, entered, holders",
        [
            ((1, 2, 2, 2), 0b0111, 3, 3),  # a third tight position with label 2
            ((1, 1, 2), 0b011, 2, 1),  # label 2 on the entered position only
        ],
    )
    def test_label_without_two_tight_holders_is_degenerate(self, labels, start, entered, holders):
        step, _ = scripted_step([entered])
        steps = []
        with pytest.raises(DegenerateGameError, match=f"held by {holders} tight"):
            walk(labels, start, 1, step, DEFAULT_STEP_CAP, steps)
        assert [s.picked for s in steps] == [2]

    @pytest.mark.parametrize("cap", [0, 1])
    def test_cap_stops_the_walk_before_pivot_cap_plus_one(self, cap):
        step, calls = scripted_step([2, 3])
        steps = []
        with pytest.raises(StepCapExceededError) as info:
            walk(self.LABELS, 0b0011, 1, step, cap, steps)
        assert info.value.steps_taken == cap
        assert len(calls) == len(steps) == cap
        step, calls = scripted_step([2, 3])
        assert walk(self.LABELS, 0b0011, 1, step, 2) == (2, 0b1100)

    @pytest.mark.parametrize("cap", [DEFAULT_STEP_CAP, 10])
    def test_recorded_walk_raises_at_a_revisited_mask(self, cap):
        # labels 1, 2, 3, 2, 3 with 0..2 tight; the script swaps labels 2 and
        # 3 around the ring and is back at the first step's mask 0b01110 at
        # pivot 5; without the check it would run out at pivot 6
        step, calls = scripted_step([3, 4, 1, 2, 3])
        steps = []
        with pytest.raises(InvariantError, match="revisited"):
            walk((1, 2, 3, 2, 3), 0b00111, 1, step, cap, steps)
        assert len(calls) == 5
        assert [s.bits for s in steps] == [0b01110, 0b11100, 0b11010, 0b10110]

    @pytest.mark.parametrize(
        "poly",
        [
            pytest.param(family(m), id=f"{family.__name__}-{m}")
            for family in (morris_polytope, triple_morris_polytope)
            for m in range(4, 11, 2)
        ]
        + [  # odd f = m + n
            pytest.param(seeded_polytope(m, n, seed), id=f"seeded-{m}-{n}-{seed}")
            for seed, (m, n) in enumerate([(2, 3), (4, 5), (4, 7), (6, 5), (6, 9), (8, 11)])
        ],
    )
    def test_recorded_steps_follow_the_reference_pivot(self, poly):
        # the driver's own bookkeeping: which tight position it drops and how
        # it updates the mask, against the run-stepping reference rule
        labels, f = poly.position_labels(), poly.f
        for k in range(1, poly.m + 1):
            path = combinatorial_lemke(poly, k)
            bits, entered = path.start_bits, None
            for s in path.steps:
                dropped = [q for q in range(f) if bits >> q & 1 and labels[q] == s.dropped and q != entered]
                assert len(dropped) == 1
                bits, entered = reference_pivot_bits(bits, f, dropped[0])
                assert (s.bits, s.picked) == (bits, labels[entered])
            assert path.steps[-1].picked == k
            assert lemke_path_length(poly, k) == (path.path_length, path.endpoint)

    def test_walk_without_steps_keeps_nothing(self):
        # a streamed walk holds no memory per pivot: 8,118 pivots under a
        # small fixed bound (a recorded step retains about 112 B)
        poly = morris_polytope(20)
        args = (poly.position_labels(), (1 << poly.m) - 1, 1, _gale_step(poly.f), DEFAULT_STEP_CAP)
        tracemalloc.start()
        try:
            length, _ = walk(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length == 8118
        assert peak < 8 * 1024


def test_labels_of_rejects_a_string_of_another_length():
    poly = LabeledGalePolytope.of(2, "12")  # four facets
    short = GaleString.from_text("110")
    with pytest.raises(ValueError):
        poly.labels_of(short)
    with pytest.raises(ValueError):
        poly.is_completely_labeled(short)
    assert poly.is_completely_labeled(GaleString.from_text("1100"))


class TestCompletelyLabeledStrings:
    def test_triple_morris_two(self):
        poly = triple_morris_polytope(2)
        strings = completely_labeled_strings(poly)
        assert {str(s) for s in strings} == {
            "11......",
            "..11....",
            "....11..",
            "......11",
        }

    def test_triple_morris_counts(self):
        for m in (2, 4, 6):
            poly = triple_morris_polytope(m)
            assert len(completely_labeled_strings(poly)) == 3 ** (m // 2) + 1

    def test_repeated_label_string(self):
        poly = LabeledGalePolytope.of(2, "11")
        assert {str(s) for s in completely_labeled_strings(poly)} == {"11..", ".11."}

    def test_budget_counts_every_vertex_string(self, monkeypatch):
        # triple Morris m = 4 has 104 vertex strings, 10 completely labeled
        poly = triple_morris_polytope(4)
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 103)
        with pytest.raises(BudgetExceededError):
            completely_labeled_strings(poly)
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 104)
        assert len(completely_labeled_strings(poly)) == 10

    def test_count_always_even(self):
        rng = random.Random(99)
        for _ in range(25):
            m = rng.choice([2, 4])
            n = rng.randint(1, 6)
            ell = tuple(rng.randint(1, m) for _ in range(n))
            poly = LabeledGalePolytope.of(m, ell)
            assert len(completely_labeled_strings(poly)) % 2 == 0

    def test_equals_the_labeled_vertex_strings_in_order(self):
        # the label-mask filter against labels_of on every vertex string
        rng = random.Random(418)
        polys = [triple_morris_polytope(m) for m in (2, 4, 6)]
        for _ in range(40):
            m = rng.choice([2, 4, 6])
            polys.append(LabeledGalePolytope.of(m, [rng.randint(1, m) for _ in range(rng.randint(1, 8))]))
        for poly in polys:
            full = frozenset(range(1, poly.m + 1))
            expected = [s for s in enumerate_gale_vertices(poly.m, poly.f) if poly.labels_of(s) == full]
            assert completely_labeled_strings(poly) == expected


class TestEulerMatchings:
    def test_graph_shape(self):
        # the tour multigraph: f edges, one per cyclically consecutive pair
        # of position labels, and every node of even degree
        poly = triple_morris_polytope(2)
        tour = poly.position_labels()
        edges = list(zip(tour, tour[1:] + tour[:1]))
        assert len(edges) == poly.f
        degrees = Counter(node for edge in edges for node in edge)
        assert all(d % 2 == 0 for d in degrees.values())

    def test_triple_morris_two_bijection(self):
        poly = triple_morris_polytope(2)
        matchings = euler_matchings(poly)
        assert len(matchings) == 4
        strings = {matching_string(poly, match) for match in matchings}
        assert strings == set(completely_labeled_strings(poly))

    def test_identity_labeling_counts(self):
        for m in (2, 4, 6):
            poly = LabeledGalePolytope.of(m, tuple(range(1, m + 1)))
            assert len(euler_matchings(poly)) == len(completely_labeled_strings(poly))

    def test_two_cycle_tour(self):
        poly = LabeledGalePolytope.of(2, "12")
        matchings = euler_matchings(poly)
        strings = completely_labeled_strings(poly)
        assert len(matchings) == len(strings) == 4
        assert {matching_string(poly, match) for match in matchings} == set(strings)

    def test_matching_budget(self, monkeypatch):
        poly = triple_morris_polytope(4)
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 9)
        with pytest.raises(BudgetExceededError):
            euler_matchings(poly)
        monkeypatch.setattr("galelemke.gale.MAX_ENUMERATED", 10)
        assert len(euler_matchings(poly)) == 10

    def test_random_labelings_bijection(self):
        rng = random.Random(4242)
        for _ in range(30):
            m = rng.choice([2, 4, 6])
            n = rng.randint(1, 8)
            ell = tuple(rng.randint(1, m) for _ in range(n))
            poly = LabeledGalePolytope.of(m, ell)
            matchings = euler_matchings(poly)
            strings = completely_labeled_strings(poly)
            assert {matching_string(poly, match) for match in matchings} == set(strings)

    def test_matches_brute_force_over_edge_subsets(self):
        # every m/2-subset of tour edges whose ends cover each label once
        rng = random.Random(4242)
        for _ in range(30):
            m = rng.choice([2, 4, 6])
            n = rng.randint(1, 8)
            poly = LabeledGalePolytope.of(m, tuple(rng.randint(1, m) for _ in range(n)))
            tour = poly.position_labels()
            ends = [(tour[t], tour[(t + 1) % poly.f]) for t in range(poly.f)]
            brute = [
                frozenset(t + 1 for t in chosen)
                for chosen in itertools.combinations(range(poly.f), m // 2)
                if sorted(node for t in chosen for node in ends[t]) == list(range(1, m + 1))
            ]
            assert euler_matchings(poly) == sorted(brute, key=sorted)


REFUSALS = [
    ("length must be positive", lambda: GaleString(0, 0)),
    ("bits out of range for length f", lambda: GaleString(4, -1)),
    ("bits out of range for length f", lambda: GaleString(4, 16)),
    ("position 5 out of range 1..4", lambda: GaleString.from_positions(4, [1, 5])),
    ("position 0 out of range 1..4", lambda: GaleString.from_text("1100").bit(0)),
    ("bad character 'x' in bitstring", lambda: GaleString.from_text("11x0")),
    ("m must be even and at least 2", lambda: enumerate_gale_vertices(3, 6)),
    ("f must exceed m", lambda: enumerate_gale_vertices(4, 4)),
    ("position 3 is not set in 11..", lambda: gale_pivot(GaleString.from_text("1100"), 3)),
    ("cannot pivot: every facet is tight", lambda: gale_pivot(GaleString.from_text("1111"), 1)),
    ("dimension must be even and at least 2", lambda: LabeledGalePolytope.of(3, [1, 2])),
    ("label string must be nonempty", lambda: LabeledGalePolytope.of(2, [])),
    ("labels must lie in 1..m", lambda: LabeledGalePolytope.of(2, [1, 3])),
    ("matching edges overlap in tour positions", lambda: matching_string(triple_morris_polytope(4), frozenset({1, 2}))),
    *(
        (f"invalid integer {v!r}", lambda v=v: LabeledGalePolytope.of(2, [v, 2]))
        for v in (1.5, Fraction(3, 2), True, "+1", "\u0661", "1_0")
    ),
]
# refusals whose message repeats one above, so each is named by its own id
REPEATED = {
    "labels must lie in 1..m: a float": ("labels must lie in 1..m", lambda: LabeledGalePolytope(2, (1.0, 2))),
    "labels must lie in 1..m: a bool": ("labels must lie in 1..m", lambda: LabeledGalePolytope(2, (True, 2))),
}


@pytest.mark.parametrize(
    "message, call", [*REFUSALS, *REPEATED.values()], ids=[*(message for message, _ in REFUSALS), *REPEATED]
)
def test_input_refusals(message, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
