"""Persistent homology of a filtered complex over the two-element field.

``boundary_reduce`` runs the standard column reduction with the lowest-one
rule, processing dimensions from the top down so that columns already known
to be paired are cleared instead of reduced.  Columns are big-int bitsets
indexed per dimension, which keeps additions at machine speed and memory
proportional to the rows of one boundary map at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .complexes import FilteredComplex, facets


@dataclass(frozen=True, slots=True)
class PersistenceInterval:
    dim: int
    birth: float
    death: float  # math.inf when the class never dies

    @property
    def immortal(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True)
class Diagram:
    """All intervals of a filtration plus its largest filtration value."""

    intervals: tuple[PersistenceInterval, ...]
    max_filtration: float

    @cached_property
    def candidates(self) -> tuple[PersistenceInterval, ...]:
        """Dim >= 1 intervals with a positive span once truncated at ``max_filtration``."""
        maxf = self.max_filtration
        return tuple(
            d
            for d in self.intervals
            if d.dim >= 1 and min(d.death, maxf) - d.birth > 0.0
        )

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The candidates' lifetimes (death clamped at ``max_filtration``, minus
        birth) and births as arrays, and the lifetimes' mean, summed left to
        right as the built-in ``sum`` of a list of floats does up to Python 3.11."""
        intervals = self.candidates
        n = len(intervals)
        births = np.fromiter((d.birth for d in intervals), dtype=np.float64, count=n)
        lifetimes = np.fromiter((d.death for d in intervals), dtype=np.float64, count=n)
        np.minimum(lifetimes, self.max_filtration, out=lifetimes)
        lifetimes -= births
        mean = float(np.add.accumulate(lifetimes)[-1]) / n if n else math.nan
        return lifetimes, births, mean


def boundary_reduce(complex_: FilteredComplex) -> Diagram:
    """Birth/death intervals for every homology dimension of the filtration."""
    order = complex_.order
    m = len(order)
    if m == 0:
        return Diagram((), 0.0)
    values = [complex_.value(s) for s in order]
    maxf = values[-1]

    by_dim: dict[int, list[int]] = {}
    for idx, s in enumerate(order):
        by_dim.setdefault(len(s) - 1, []).append(idx)
    top = max(by_dim)

    pairs: list[tuple[int, int]] = []
    cleared: set[int] = set()
    for q in range(top, 0, -1):
        if q not in by_dim or (q - 1) not in by_dim:
            continue
        rows = by_dim[q - 1]
        rowpos = {order[g]: i for i, g in enumerate(rows)}
        lows: dict[int, int] = {}  # local row -> reduced column bitset
        for j in by_dim[q]:
            if j in cleared:
                continue
            col = 0
            for f in facets(order[j]):
                col ^= 1 << rowpos[f]
            while col:
                i = col.bit_length() - 1
                other = lows.get(i)
                if other is None:
                    break
                col ^= other
            if col:
                i = col.bit_length() - 1
                lows[i] = col
                g = rows[i]
                pairs.append((g, j))
                cleared.add(g)

    deaths = {j for _, j in pairs}
    killed = {i for i, _ in pairs}
    intervals = [
        PersistenceInterval(len(order[i]) - 1, values[i], values[j]) for i, j in pairs
    ]
    for j in range(m):
        if j in deaths or j in killed:
            continue
        intervals.append(PersistenceInterval(len(order[j]) - 1, values[j], math.inf))
    intervals.sort(key=lambda d: (d.dim, d.birth, d.death))
    return Diagram(tuple(intervals), float(maxf))


def intervals_above_dim_zero(diagram: Diagram) -> tuple[PersistenceInterval, ...]:
    """Candidates for scale selection, computed once per diagram."""
    return diagram.candidates


def write_diagram_csv(diagram: Diagram, path: str | Path) -> None:
    """dim,birth,death rows; immortal deaths written as ``inf``."""
    lines = ["dim,birth,death"]
    for d in diagram.intervals:
        death = "inf" if d.immortal else repr(d.death)
        lines.append(f"{d.dim},{d.birth!r},{death}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_diagram_json(diagram: Diagram, path: str | Path) -> None:
    payload = {
        "max_filtration": diagram.max_filtration,
        "intervals": [
            {"dim": d.dim, "birth": d.birth, "death": "inf" if d.immortal else d.death}
            for d in diagram.intervals
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


