"""Pivot-path records shared by the tableau solver and the bitstring engine.

A path starts at a completely labeled vertex, drops the missing label, and
pivots along almost-complementary edges until the missing label is picked
up again.  Every walk runs on the one label-forced loop
``gale._lemke_pivots``, and the steps it appends are the record: per step
the label dropped, the label picked up and the bit mask of the tight
positions reached.  The path decodes a mask into its vertex on access.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any, Callable, NamedTuple


class PivotStep(NamedTuple):
    dropped: int
    picked: int
    bits: int  # the tight positions after the pivot, bit p for 0-based position p


def tight_set(names, bits: int) -> frozenset:
    """The set of ``names[p]`` over the bits p that are set in ``bits``."""
    return frozenset(names[p] for p in range(len(names)) if bits >> p & 1)


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


def path_to_csv(path: PivotPath, out, m: int, n: int) -> None:
    """Dump a product-polytope path of an m x n game as CSV: step,
    dropped_label, picked_label, polytope, basis.

    The basis is that of the side that moved: the variables whose labels
    are not in its label set, x_i and s_j in P, r_i and y_j in Q.
    """
    writer = csv.writer(out)
    writer.writerow(["step", "dropped_label", "picked_label", "polytope", "basis"])
    rows = zip(path.steps, path.vertices()[1:], path.sides())
    for idx, (step, vertex, system) in enumerate(rows, start=1):
        side = "PQ".index(system)
        labels, (low, high) = vertex[side], ("xs", "ry")[side]
        basis = [f"{low}{k}" if k <= m else f"{high}{k - m}" for k in range(1, m + n + 1) if k not in labels]
        writer.writerow([idx, step.dropped, step.picked, system, ";".join(basis)])
