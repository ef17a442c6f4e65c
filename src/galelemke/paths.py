"""Pivot-path records shared by the tableau solver and the bitstring engine.

A path starts at a completely labeled vertex, drops the missing label, and
pivots along almost-complementary edges until the missing label is picked
up again.  Steps record the vertex reached, which label's facet was left
(dropped) and which was hit (picked up), and, for paths on a product of two
polytopes, which side moved.  Every walk is generated, and cut at its
step cap, by the one label-forced loop ``gale._lemke_pivots``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Any, NamedTuple


class PivotStep(NamedTuple):
    dropped: int
    picked: int
    vertex: Any
    system: str | None = None  # "P" or "Q" for product-polytope paths


@dataclass(frozen=True)
class PivotPath:
    missing_label: int
    start: Any
    steps: tuple[PivotStep, ...]

    @property
    def path_length(self) -> int:
        """Number of edges traversed."""
        return len(self.steps)

    @property
    def endpoint(self) -> Any:
        return self.steps[-1].vertex if self.steps else self.start

    def vertices(self) -> list[Any]:
        return [self.start] + [step.vertex for step in self.steps]

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
    for idx, step in enumerate(path.steps, start=1):
        side = "PQ".index(step.system)
        labels, (low, high) = step.vertex[side], ("xs", "ry")[side]
        basis = [f"{low}{k}" if k <= m else f"{high}{k - m}" for k in range(1, m + n + 1) if k not in labels]
        writer.writerow([idx, step.dropped, step.picked, step.system, ";".join(basis)])
