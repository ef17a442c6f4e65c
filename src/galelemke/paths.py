"""Pivot-path records and the step-cap runner shared by the tableau solver
and the bitstring engine.

A path starts at a completely labeled vertex, drops the missing label, and
pivots along almost-complementary edges until the missing label is picked
up again.  Steps record the vertex reached, which label's facet was left
(dropped) and which was hit (picked up), and, for paths on a product of two
polytopes, which side moved.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable, Iterator, NamedTuple

from .errors import StepCapExceededError


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


def capped(pivots: Iterator, cap: int | None) -> Iterator:
    """The first ``cap`` pivots of the stream; raises StepCapExceededError
    with ``steps_taken == cap`` if the stream holds a pivot ``cap + 1``.

    ``cap=None`` returns the stream itself.  The cut adds no Python frame
    per pivot: ``islice`` forwards the pivots and the overflow check runs
    once, after the last allowed one.
    """
    if cap is None:
        return pivots
    if cap < 0:
        raise ValueError(f"step cap must be nonnegative, got {cap}")
    return chain(islice(pivots, cap), _nothing_left(pivots, cap))


def _nothing_left(pivots: Iterator, cap: int) -> Iterator:
    for _ in pivots:
        raise StepCapExceededError(f"pivoting exceeded the step cap of {cap} pivots", cap)
    yield from ()


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


def path_to_csv(path: PivotPath, out, m: int | None = None, n: int | None = None) -> None:
    """Dump a path as CSV: step, dropped_label, picked_label, polytope, basis.

    For product-polytope paths pass the game dimensions so bases can be
    reconstructed from label sets; bitstring paths list the tight positions.
    """
    writer = csv.writer(out)
    writer.writerow(["step", "dropped_label", "picked_label", "polytope", "basis"])
    for idx, step in enumerate(path.steps, start=1):
        vertex = step.vertex
        if isinstance(vertex, tuple) and m is not None and n is not None:
            side = vertex[0] if step.system == "P" else vertex[1]
            basis = _basis_names(side, m, n, step.system or "P")
            polytope = step.system or "P"
        else:
            positions = vertex.ones() if hasattr(vertex, "ones") else sorted(vertex)
            basis = ";".join(f"p{p}" for p in positions)
            polytope = step.system or "P"
        writer.writerow([idx, step.dropped, step.picked, polytope, basis])
