"""Persistent homology of a filtered complex over the two-element field.

``boundary_reduce`` finds the persistence pairs by cohomology with clearing,
the route of Bauer's Ripser; de Silva, Morozov and Vejdemo-Johansson show
that persistent cohomology has the same pairs as homology.  Dimensions are
handled lowest first.  The coboundary columns of the q-simplices are reduced
in reverse filtration order, and a column's pivot is its earliest cofacet.
A q-simplex that killed a class of dimension q-1 gets no column (clearing),
a column whose earliest cofacet has no owner yet is paired at once, and only
the rest are reduced by column additions.  The top dimension has no
coboundary, so it gets no columns: each top simplex that no column claimed
is an immortal interval.

Everything is read from the complex's arrays, never from tuples: each
dimension's vertex matrix and values come from ``FilteredComplex.block`` in
filtration order, so births and deaths are those values.  Facets are found
with numpy: vertices get dense ids, each simplex an exact ``int64`` key (the
rank of its prefix face, all vertices but the last, times the vertex count,
plus its last vertex), and the keys of one dimension are searched with
``np.searchsorted``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from .complexes import FilteredComplex


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


def _key_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The keys of one dimension sorted, and each sorted key's position.
    sorter = np.argsort(keys, kind="stable")
    return keys[sorter], sorter


def _locate(tables: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray) -> np.ndarray:
    # Positions within their dimension of the simplices whose dense vertex
    # rows are ``rows``, found one prefix face at a time.
    nv = len(tables[0][0])
    pos = rows[:, 0]
    for q in range(1, rows.shape[1]):
        keys, sorter = tables[q]
        pos = sorter[np.searchsorted(keys, pos * nv + rows[:, q])]
    return pos


def _dense(matrix: np.ndarray, vertices: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    # A vertex matrix with every vertex id replaced by its dense id.
    ids, sorter = vertices
    return sorter[np.searchsorted(ids, matrix)]


def _coboundaries(facet_pos: np.ndarray, n_columns: int) -> tuple[list[int], np.ndarray]:
    # Column pointers and cofacet positions, each column ascending, from the
    # facet positions of every cofacet in filtration order.
    flat = facet_pos.ravel()
    cofacets = np.argsort(flat, kind="stable") // facet_pos.shape[1]
    starts = np.zeros(n_columns + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_columns), out=starts[1:])
    return starts.tolist(), cofacets


def _reduce(
    births: list[float], deaths: list[float], starts: list[int],
    cofacets: np.ndarray, cleared: set[int],
) -> tuple[list[tuple[float, float]], dict[int, object]]:
    # One dimension's columns, latest first; returns the (birth, death) pairs
    # and the owner of every pivot.
    def column(c: int) -> set[int]:
        return set(cofacets[starts[c]:starts[c + 1]].tolist())

    owners: dict[int, object] = {}  # pivot -> its column: an index, or a reduced set
    found: list[tuple[float, float]] = []
    for c in range(len(births) - 1, -1, -1):
        if c in cleared:
            continue
        lo = starts[c]
        if lo == starts[c + 1]:
            found.append((births[c], math.inf))
            continue
        pivot = int(cofacets[lo])
        if pivot in owners:
            col = column(c)
            while pivot in owners:
                other = owners[pivot]
                col ^= other if isinstance(other, set) else column(other)
                if not col:
                    break
                pivot = min(col)
            if not col:
                found.append((births[c], math.inf))
                continue
            owners[pivot] = col
        else:
            owners[pivot] = c
        found.append((births[c], deaths[pivot]))
    return found, owners


def boundary_reduce(complex_: FilteredComplex) -> Diagram:
    """Birth/death intervals for every homology dimension of the filtration."""
    if not len(complex_):
        return Diagram((), 0.0)
    top = complex_.dimension

    # tables[q] holds the sorted keys of the q-simplices and the position of
    # each in filtration order among them.  A vertex's key is its id, and its
    # position is its dense id; the key of a higher simplex is the position
    # of its prefix face times the vertex count, plus its last dense id.
    vertices, values = complex_.block(0)
    tables = [_key_table(vertices[:, 0])]
    nv = len(vertices)
    intervals: list[PersistenceInterval] = []
    cleared: set[int] = set()  # positions of q-simplices that killed a (q-1)-class
    births = values.tolist()
    for q in range(top):
        simplices, values = complex_.block(q + 1)
        deaths = values.tolist()
        rows = _dense(simplices, tables[0])
        del simplices
        facet_pos = np.empty(rows.shape, dtype=np.int64)
        for i in range(q + 2):
            facet_pos[:, i] = _locate(tables, np.delete(rows, i, axis=1))
        if q + 1 < top:
            tables.append(_key_table(facet_pos[:, -1] * nv + rows[:, -1]))
        del rows
        starts, cofacets = _coboundaries(facet_pos, len(births))
        del facet_pos

        found, owners = _reduce(births, deaths, starts, cofacets, cleared)
        found.sort()
        intervals.extend(PersistenceInterval(q, b, d) for b, d in found)
        cleared = set(owners)
        births = deaths

    # Each top simplex no column claimed is immortal.  In filtration order
    # their births already ascend, and equal intervals share one object.
    alive = np.ones(len(values), dtype=bool)
    alive[np.fromiter(cleared, dtype=np.intp, count=len(cleared))] = False
    for birth, run in groupby(values[alive].tolist()):
        shared = PersistenceInterval(top, birth, math.inf)
        intervals.extend(shared for _ in run)
    return Diagram(tuple(intervals), complex_.max_value)


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


