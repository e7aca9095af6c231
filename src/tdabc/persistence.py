"""Persistent homology of a filtered complex over the two-element field.

``boundary_reduce`` runs the standard column reduction with the lowest-one
rule, processing dimensions from the top down so that columns already known
to be paired are cleared instead of reduced.  Columns are big-int bitsets
indexed per dimension, which keeps additions at machine speed and memory
proportional to the rows of one boundary map at a time.

``betti_oracle`` is an intentionally separate check: it ranks dense
boundary matrices by Gaussian elimination and shares no code with the
reduction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .complexes import FilteredComplex, facets
from .errors import CapacityExceeded


@dataclass(frozen=True)
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

    def in_dim(self, dim: int) -> tuple[PersistenceInterval, ...]:
        return tuple(d for d in self.intervals if d.dim == dim)

    @cached_property
    def candidates(self) -> tuple[PersistenceInterval, ...]:
        """Dim >= 1 intervals with a positive span once truncated at ``max_filtration``."""
        maxf = self.max_filtration
        return tuple(
            d
            for d in self.intervals
            if d.dim >= 1 and min(d.death, maxf) - d.birth > 0.0
        )


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


_ORACLE_DIM_CAP = 6000


def _gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    mat = mat.copy()
    n_rows, n_cols = mat.shape
    rank = 0
    for c in range(n_cols):
        hits = np.flatnonzero(mat[rank:, c])
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        others = np.flatnonzero(mat[:, c])
        others = others[others != rank]
        if others.size:
            mat[others] ^= mat[rank]
        rank += 1
        if rank == n_rows:
            break
    return rank


def betti_oracle(complex_: FilteredComplex, epsilon: float, dim: int) -> int:
    """Betti number at scale ``epsilon`` from dense boundary-map ranks."""
    eps = float(epsilon)
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for s in complex_.order:
        if complex_.value(s) <= eps:
            grouped.setdefault(len(s) - 1, []).append(s)
    for q, members in grouped.items():
        if len(members) > _ORACLE_DIM_CAP:
            raise CapacityExceeded(
                f"{len(members)} simplices of dimension {q}; the oracle is for small complexes"
            )

    def boundary_matrix(q: int) -> np.ndarray:
        cols = grouped.get(q, [])
        rows = grouped.get(q - 1, [])
        mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        if not rows or not cols:
            return mat
        rowpos = {s: i for i, s in enumerate(rows)}
        for j, s in enumerate(cols):
            for f in combinations(s, q):
                mat[rowpos[f], j] = 1
        return mat

    n_dim = len(grouped.get(dim, []))
    if n_dim == 0:
        return 0
    rank_down = _gf2_rank(boundary_matrix(dim)) if dim > 0 else 0
    rank_up = _gf2_rank(boundary_matrix(dim + 1))
    return n_dim - rank_down - rank_up


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


