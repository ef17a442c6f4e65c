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
from typing import Any, Iterable, NamedTuple


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


def _basis_names(labels: Iterable[int], m: int, n: int, side: str) -> str:
    """Variable ids of the side's basis, from the complement of its labels."""
    missing = set(labels)
    names = []
    for label in range(1, m + n + 1):
        if label in missing:
            continue
        if side == "P":
            names.append(f"x{label}" if label <= m else f"s{label - m}")
        else:
            names.append(f"r{label}" if label <= m else f"y{label - m}")
    return ";".join(names)


def path_to_csv(path: PivotPath, out, m: int, n: int) -> None:
    """Dump a product-polytope path of an m x n game as CSV: step,
    dropped_label, picked_label, polytope, basis.

    The basis is that of the side that moved, reconstructed from its label
    set.
    """
    writer = csv.writer(out)
    writer.writerow(["step", "dropped_label", "picked_label", "polytope", "basis"])
    for idx, step in enumerate(path.steps, start=1):
        labels = step.vertex[0] if step.system == "P" else step.vertex[1]
        basis = _basis_names(labels, m, n, step.system)
        writer.writerow([idx, step.dropped, step.picked, step.system, basis])
