"""The label-forced walk that every pivoting engine runs, and its record.

A path starts at a completely labeled vertex, drops the missing label, and
pivots along almost-complementary edges until the missing label is picked
up again.  After McLennan and Tourky (2010), the Gale-string walk, the
P-only walk of a unit-vector game and the product walk of a bimatrix game
are one walk with different pivot steps: ``walk`` is its loop and
DEFAULT_STEP_CAP its default cap.  The steps it appends are the record:
per step the label dropped, the label picked up and the bit mask of the
tight positions reached.  The path decodes a mask into its vertex on
access, by the decoder of the engine that walked it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any, Callable, NamedTuple

from .errors import DegenerateGameError, InvariantError, StepCapExceededError

DEFAULT_STEP_CAP = 10_000_000  # the pivots a ``walk`` may take by default


class PivotStep(NamedTuple):
    dropped: int
    picked: int
    bits: int  # the tight positions after the pivot, bit p for 0-based position p


@dataclass(frozen=True)
class PivotPath:
    missing_label: int
    start_bits: int
    steps: tuple[PivotStep, ...]
    decode: Callable[[int], Any] = field(compare=False, repr=False)  # mask -> vertex
    q_mask: int = 0  # Q's positions in a product walk; 0 for a walk on one polytope

    @property
    def path_length(self) -> int:
        """Number of edges traversed."""
        return len(self.steps)

    @property
    def start(self) -> Any:
        return self.decode(self.start_bits)

    @property
    def endpoint(self) -> Any:
        return self.decode(self.steps[-1].bits if self.steps else self.start_bits)

    def vertices(self) -> list[Any]:
        return [self.start] + [self.decode(step.bits) for step in self.steps]

    def sides(self) -> list[str]:
        """Per step, "Q" if it changed a position of ``q_mask``, else "P"."""
        masks = [self.start_bits] + [step.bits for step in self.steps]
        return ["Q" if (a ^ b) & self.q_mask else "P" for a, b in pairwise(masks)]

    def label_sequence(self) -> list[tuple[int, int]]:
        return [(step.dropped, step.picked) for step in self.steps]


def walk(labels, start: int, missing_label: int, step, cap: int, steps=None) -> tuple[int, int]:
    """Walk the label-forced path for the missing label and return its
    length and end mask: the one walk of the Gale engine and of both
    Lemke-Howson walks.  ``start`` is the bit mask of the tight 0-based
    positions, which carry labels 1..start.bit_count(), and ``labels[q]``
    is q's label.  The walk first drops the start position with the missing
    label; after picking up label l at position q it drops the other tight
    position with label l, ``bits & others[q]`` (``others[q]``: the other
    positions of label l), by the pivot ``step(bits, p)``, which returns
    the entered position; only the driver updates the mask.  Given a list
    ``steps``, it appends each ``PivotStep(dropped, picked, bits)`` and
    raises InvariantError at the first revisited mask; without one it
    keeps nothing.

    The walk takes at most ``cap`` pivots.  If it has not ended by then,
    it raises StepCapExceededError with ``steps_taken == cap`` instead of
    computing pivot cap + 1.
    """
    k = start.bit_count()
    if not 1 <= missing_label <= k:
        raise ValueError(f"missing label {missing_label} out of range 1..{k}")
    if cap < 0:
        raise ValueError(f"step cap must be nonnegative, got {cap}")
    masks = [0] * (k + 1)  # masks[lab]: the positions carrying label lab
    for q, lab in enumerate(labels):
        masks[lab] |= 1 << q
    others = [masks[lab] ^ 1 << q for q, lab in enumerate(labels)]
    visited = {start}
    bits, drop = start, 1 << (start & masks[missing_label]).bit_length() >> 1  # its top bit alone
    for length in range(1, cap + 1):
        p0 = drop.bit_length() - 1
        q0 = step(bits, p0)
        bits ^= drop | 1 << q0
        picked = labels[q0]
        if steps is not None:
            if bits in visited:
                raise InvariantError(f"pivoting revisited the tight positions {bits:#b}")
            visited.add(bits)
            # tuple.__new__ skips the NamedTuple's Python-level __new__: one call less per step
            steps.append(tuple.__new__(PivotStep, (labels[p0], picked, bits)))
        if picked == missing_label:
            return length, bits
        drop = bits & others[q0]
        if drop.bit_count() != 1:
            raise DegenerateGameError(
                f"label {picked} held by {drop.bit_count() + 1} tight positions; "
                "labeling is degenerate"
            )
    raise StepCapExceededError(f"pivoting exceeded the step cap of {cap} pivots", cap)
