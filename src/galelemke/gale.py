"""Gale-evenness bitstrings and the combinatorial pivot engine.

Vertices of a dual cyclic polytope in even dimension m with f facets are
exactly the length-f bitstrings with m ones in which every maximal cyclic
run of ones has even length.  As f > m leaves a zero, such ones split in
one way only into m/2 disjoint pairs of cyclically adjacent positions: the
vertex enumeration, the evenness check and the matchings of the tour
multigraph run on these pairs as bit masks, with no recursion.  Dropping
one facet of a vertex leaves m-1 fixed facets that admit exactly two
completions, which makes edge-following a purely combinatorial operation:
no arithmetic, a few bit scans per pivot.  A vertex is its set of tight
facets, kept as one bit mask; ``_gale_step`` is this engine's pivot step,
which ``paths.walk``, the label-forced loop that both Lemke-Howson walks
share, drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from math import comb
from operator import getitem

from .errors import BudgetExceededError
from .game import as_integer
from .paths import DEFAULT_STEP_CAP, PivotPath, PivotStep, walk

MAX_ENUMERATED = 1_000_000


@dataclass(frozen=True)
class GaleString:
    """A vertex bitstring: position p (1-based) is bit p-1 of ``bits``."""

    f: int
    bits: int

    def __post_init__(self):
        if self.f < 1:
            raise ValueError("length must be positive")
        if not 0 <= self.bits < (1 << self.f):
            raise ValueError("bits out of range for length f")
        m = self.m
        if m % 2 != 0:
            raise ValueError(f"number of ones must be even, got {m}")
        if not _cyclic_runs_even(self.bits, self.f):
            raise ValueError(f"odd interior run of ones in {self}")

    @classmethod
    def from_text(cls, text: str) -> "GaleString":
        """Read '1' for a one and '0' or '.' for a zero."""
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch not in "0.":
                raise ValueError(f"bad character {ch!r} in bitstring")
        return cls(len(text), bits)

    @classmethod
    def from_positions(cls, f: int, positions) -> "GaleString":
        bits = 0
        for p in positions:
            if not 1 <= p <= f:
                raise ValueError(f"position {p} out of range 1..{f}")
            bits |= 1 << (p - 1)
        return cls(f, bits)

    @property
    def m(self) -> int:
        return self.bits.bit_count()

    def bit(self, position: int) -> bool:
        if not 1 <= position <= self.f:
            raise ValueError(f"position {position} out of range 1..{self.f}")
        return bool(self.bits >> (position - 1) & 1)

    def ones(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.f + 1) if self.bits >> (p - 1) & 1)

    def __str__(self) -> str:
        """Figure convention: ones as '1', zeros as dots."""
        return "".join("1" if self.bits >> i & 1 else "." for i in range(self.f))


def _cyclic_runs_even(bits: int, f: int) -> bool:
    """Whether the ones split into disjoint cyclically adjacent pairs.
    Rotated to start just after a zero, the string has no run across the
    wrap, so its lowest one must pair with the one above it."""
    full = (1 << f) - 1
    if bits == full:
        return True  # single cyclic run covering everything; popcount checked elsewhere
    start = (~bits & (bits + 1)).bit_length()  # just after the lowest zero
    bits = (bits >> start | bits << (f - start)) & full
    while bits:
        low = bits & -bits
        if not bits & low << 1:
            return False
        bits ^= low * 3
    return True


def enumerate_gale_vertices(m: int, f: int) -> list[GaleString]:
    """All valid vertex bitstrings of length f with m ones, in lexicographic
    order of their text form.  Requires even m and f > m; refuses more than
    MAX_ENUMERATED of them before building any."""
    return [GaleString(f, bits) for bits in _vertex_bits(m, f)]


def vertex_count(m: int, f: int) -> int:
    """The number of vertex strings of length f with m ones, for even m and
    f > m: f/(f-k) * C(f-k, k) with k = m/2, the vertices of the dual cyclic
    polytope in dimension m with f facets."""
    k = m // 2
    return f * comb(f - k, k) // (f - k)


def _vertex_bits(m: int, f: int) -> list[int]:
    """The bits of ``enumerate_gale_vertices(m, f)``, in the same order.

    A vertex string is k = m/2 disjoint cyclically adjacent pairs (t, t+1):
    the starts c_i + i of a k-subset c of 0..f-k, less those with both the
    pairs at 0 and f-1; ``vertex_count(m, f)`` of them in all."""
    if m % 2 != 0 or m < 2:
        raise ValueError("m must be even and at least 2")
    if f <= m:
        raise ValueError("f must exceed m")
    k = m // 2
    total = vertex_count(m, f)
    if total > MAX_ENUMERATED:
        raise BudgetExceededError(f"{total} vertex strings for ({m}, {f}), more than {MAX_ENUMERATED}")
    pairs = [3 << t for t in range(f - 1)] + [1 | 1 << (f - 1)]
    shifted = [pairs[i:] for i in range(k)]  # shifted[i][c] is the pair at c + i
    mirrored = pairs[-2::-1] + pairs[-1:]  # position 0 as the top bit: numeric order is text order
    keys = [mirrored[i:] for i in range(k)]
    by_text = {
        sum(map(getitem, keys, c)): sum(map(getitem, shifted, c))
        for c in combinations(range(f - k + 1), k)
        if c[0] or c[-1] < f - k
    }
    return [by_text[key] for key in sorted(by_text)]


@cache
def _gale_step(f: int):
    """The Gale pivot on strings of length f: ``step(bits, p0)`` drops bit
    p0 of a Gale-even string with a zero and returns the bit that enters.

    Removing a one splits its run into two fragments, exactly one of odd
    length; the only repairs by a single new one are re-adding p0 (the old
    vertex) or extending the odd fragment at its far end, so the traversed
    edge is unique.  On ``zeros = ~bits``, where every position from f up
    reads as a zero, z is the nearest zero below p0, cyclically: if the
    (p0 - z) % f ones above z up to p0 are even in number, the odd fragment
    lies below p0 and z enters; otherwise the first zero above p0 enters,
    or the lowest zero when that is f or more.  The masks below each p0
    are tabled once per f.
    """
    full, below = (1 << f) - 1, [(1 << p0) - 1 for p0 in range(f)]

    def step(bits: int, p0: int) -> int:
        zeros = ~bits
        z = ((zeros & below[p0]) or zeros & full).bit_length() - 1
        if not (p0 - z) % f & 1:
            return z
        x = zeros >> p0
        q = (x & -x).bit_length() + p0 - 1
        return q if q < f else (zeros & -zeros).bit_length() - 1

    return step


def gale_pivot(s: GaleString, drop_position: int) -> tuple[GaleString, int]:
    """Traverse the unique edge leaving vertex s through the facet at
    ``drop_position``; returns the new vertex and the entered position."""
    if not s.bit(drop_position):
        raise ValueError(f"position {drop_position} is not set in {s}")
    if s.m == s.f:
        raise ValueError("cannot pivot: every facet is tight")
    q0 = _gale_step(s.f)(s.bits, drop_position - 1)
    return GaleString(s.f, s.bits ^ 1 << (drop_position - 1) | 1 << q0), q0 + 1


@dataclass(frozen=True)
class LabeledGalePolytope:
    """A dual cyclic polytope in even dimension m whose facet p carries label
    p for p <= m and label ell(p-m) beyond; ell ranges over 1..m."""

    m: int
    ell: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise ValueError("dimension must be even and at least 2")
        if not self.ell:
            raise ValueError("label string must be nonempty")
        if any(not (type(v) is int and 1 <= v <= self.m) for v in self.ell):
            raise ValueError("labels must lie in 1..m")

    @classmethod
    def of(cls, m: int, ell) -> "LabeledGalePolytope":
        return cls(m, tuple(map(as_integer, ell)))

    @property
    def n(self) -> int:
        return len(self.ell)

    @property
    def f(self) -> int:
        return self.m + self.n

    def position_labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1)) + self.ell

    def labels_of(self, s: GaleString) -> frozenset[int]:
        if s.f != self.f:
            raise ValueError(f"string of length {s.f} on a polytope with {self.f} facets")
        labels = self.position_labels()
        return frozenset(labels[p - 1] for p in s.ones())

    def is_completely_labeled(self, s: GaleString) -> bool:
        return self.labels_of(s) == frozenset(range(1, self.m + 1))


def completely_labeled_strings(poly: LabeledGalePolytope) -> list[GaleString]:
    """All vertex strings whose tight positions carry every label 1..m, in
    the order of ``enumerate_gale_vertices``; refuses more than
    MAX_ENUMERATED vertex strings.  Each vertex mask is tested against the
    positions of each label, and only the strings that pass are built."""
    masks = [0] * poly.m  # masks[lab - 1]: the positions carrying label lab
    for q, lab in enumerate(poly.position_labels()):
        masks[lab - 1] |= 1 << q
    return [GaleString(poly.f, b) for b in _vertex_bits(poly.m, poly.f) if all(b & mask for mask in masks)]


def combinatorial_lemke(
    poly: LabeledGalePolytope, missing_label: int, step_cap: int = DEFAULT_STEP_CAP
) -> PivotPath:
    """Follow the pivot path for the missing label on the labeled polytope.

    Starts at the vertex with the first m facets tight and ends at another
    completely labeled vertex; the path's vertices are GaleStrings.  It
    may take exactly ``step_cap`` pivots; a longer path raises
    StepCapExceededError with ``steps_taken == step_cap``, and a revisited
    vertex raises InvariantError.
    """
    start, f = (1 << poly.m) - 1, poly.f
    steps: list[PivotStep] = []
    walk(poly.position_labels(), start, missing_label, _gale_step(f), step_cap, steps)
    return PivotPath(missing_label, start, tuple(steps), partial(GaleString, f))


def lemke_path_length(
    poly: LabeledGalePolytope, missing_label: int, step_cap: int = DEFAULT_STEP_CAP
) -> tuple[int, GaleString]:
    """Length (edge count) and endpoint of the path, keeping no step: for
    exponentially long paths.  The step cap works as in ``combinatorial_lemke``.
    """
    start, f = (1 << poly.m) - 1, poly.f
    length, bits = walk(poly.position_labels(), start, missing_label, _gale_step(f), step_cap)
    return length, GaleString(f, bits)


# ---------------------------------------------------------------------------
# The tour multigraph of a label string and its perfect matchings.


def euler_matchings(poly: LabeledGalePolytope) -> list[frozenset[int]]:
    """All loop-free perfect matchings of the tour multigraph, as frozensets
    of 1-based edge positions.  The multigraph has nodes 1..m, and its edge
    t joins the labels of positions t and t+1 (cyclically) of the tour 1,
    ..., m, ell(1), ..., ell(n), so every node has even degree.  In bijection
    with the completely labeled strings.  Refuses more than MAX_ENUMERATED
    of them."""
    tour, m, f = poly.position_labels(), poly.m, poly.f
    incident: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    for t in range(f):
        u, v = tour[t], tour[(t + 1) % f]
        if u != v:  # a loop cannot cover its node exactly once
            incident[u].append((1 << u | 1 << v, t + 1))
            incident[v].append((1 << u | 1 << v, t + 1))
    matchings: list[frozenset[int]] = []
    stack = [(1, ())]  # (covered nodes as bits 1..m, bit 0 always set; chosen edges)
    while stack:
        covered, chosen = stack.pop()
        if covered == (1 << (m + 1)) - 1:
            if len(matchings) >= MAX_ENUMERATED:
                raise BudgetExceededError(f"more than {MAX_ENUMERATED} matchings")
            matchings.append(frozenset(chosen))
            continue
        node = (~covered & (covered + 1)).bit_length() - 1  # the lowest uncovered node
        stack += [(covered | ends, (*chosen, edge)) for ends, edge in incident[node] if not covered & ends]
    return sorted(matchings, key=sorted)


def matching_string(poly: LabeledGalePolytope, matching: frozenset[int]) -> GaleString:
    """The vertex string encoded by a matching: edge t contributes the pair
    of adjacent tight positions (t, t+1)."""
    f = poly.f
    positions: set[int] = set()
    for t in matching:
        positions.add(t)
        positions.add(t % f + 1)
    if len(positions) != 2 * len(matching):
        raise ValueError("matching edges overlap in tour positions")
    return GaleString.from_positions(f, positions)
