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
with numpy: each vertex gets a dense id (its position among the vertices),
gathered by its rank, which is how ``block`` gives it; each simplex an exact
``int64`` key (the position of its prefix face, all vertices but the last,
times the vertex count, plus its last dense id); and the keys of one
dimension are searched with ``np.searchsorted``.

The result is a ``Diagram`` of three arrays in (dim, birth, death) order.
Selection reads the arrays; a ``PersistenceInterval`` object is made only
for an interval that is read through ``Diagram.intervals`` or
``Diagram.candidates``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .complexes import FilteredComplex
from .datasets import write_rows


@dataclass(frozen=True, slots=True)
class PersistenceInterval:
    dim: int
    birth: float
    death: float  # math.inf when the class never dies

    @property
    def immortal(self) -> bool:
        return math.isinf(self.death)


class Intervals(Sequence[PersistenceInterval]):
    """Some of a diagram's intervals, by position, each made as a
    ``PersistenceInterval`` only when it is read."""

    __slots__ = ("_diagram", "positions")

    def __init__(self, diagram: Diagram, positions: np.ndarray) -> None:
        self._diagram = diagram
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i: int) -> PersistenceInterval:
        j = self.positions[i]
        d = self._diagram
        return PersistenceInterval(int(d.dims[j]), float(d.births[j]), float(d.deaths[j]))

    def __iter__(self) -> Iterator[PersistenceInterval]:
        d, at = self._diagram, self.positions
        return map(PersistenceInterval,
                   d.dims[at].tolist(), d.births[at].tolist(), d.deaths[at].tolist())


class Diagram:
    """All intervals of a filtration as three arrays, ``dims``, ``births`` and
    ``deaths`` (``math.inf`` for a class that never dies), plus the largest
    filtration value.  Two diagrams are equal when their arrays and largest
    values are."""

    def __init__(self, intervals: Iterable[PersistenceInterval], max_filtration: float) -> None:
        """A diagram of interval objects, kept in the order given."""
        rows = [(d.dim, d.birth, d.death) for d in intervals]
        dims, births, deaths = zip(*rows) if rows else ((), (), ())
        self._store(np.array(dims, dtype=np.int64), np.array(births, dtype=np.float64),
                    np.array(deaths, dtype=np.float64), max_filtration)

    def _store(self, dims: np.ndarray, births: np.ndarray, deaths: np.ndarray,
               max_filtration: float) -> None:
        for array in (dims, births, deaths):
            array.flags.writeable = False
        self.dims, self.births, self.deaths = dims, births, deaths
        self.max_filtration = float(max_filtration)

    @classmethod
    def _from_arrays(cls, dims: np.ndarray, births: np.ndarray, deaths: np.ndarray,
                     max_filtration: float) -> Diagram:
        out = cls.__new__(cls)
        out._store(dims, births, deaths, max_filtration)
        return out

    def __len__(self) -> int:
        return len(self.dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.max_filtration == other.max_filtration
                and np.array_equal(self.dims, other.dims)
                and np.array_equal(self.births, other.births)
                and np.array_equal(self.deaths, other.deaths))

    def __repr__(self) -> str:
        return (f"Diagram(dims={self.dims.tolist()}, births={self.births.tolist()}, "
                f"deaths={self.deaths.tolist()}, max_filtration={self.max_filtration!r})")

    @cached_property
    def intervals(self) -> Intervals:
        return Intervals(self, np.arange(len(self)))

    @cached_property
    def candidates(self) -> Intervals:
        """Dim >= 1 intervals with a positive span once truncated at ``max_filtration``."""
        spans = np.minimum(self.deaths, self.max_filtration) - self.births
        return Intervals(self, np.flatnonzero((self.dims >= 1) & (spans > 0.0)))

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The candidates' lifetimes (death clamped at ``max_filtration``, minus
        birth) and births as arrays, and the lifetimes' mean, summed left to
        right as the built-in ``sum`` of a list of floats does up to Python 3.11."""
        at = self.candidates.positions
        births = self.births[at]
        lifetimes = np.minimum(self.deaths[at], self.max_filtration) - births
        mean = float(np.add.accumulate(lifetimes)[-1]) / at.size if at.size else math.nan
        return lifetimes, births, mean


def _key_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The keys of one dimension sorted, and each sorted key's position; the
    # keys are distinct, so any sort gives the same order.
    sorter = np.argsort(keys)
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


def _coboundaries(facet_pos: np.ndarray, n_columns: int) -> tuple[list[int], np.ndarray]:
    # Column pointers and cofacet positions, each column ascending, from the
    # facet positions of every cofacet in filtration order.  A cofacet lists
    # a facet once, so the key facet * cofacet count + cofacet is distinct
    # (and far below 2**63 for any complex that fits in memory); sorting the
    # keys lists each column's cofacets in ascending order, as a stable
    # argsort of the facet positions would, but faster.
    count = len(facet_pos)
    keys = facet_pos * count + np.arange(count)[:, None]
    cofacets = np.sort(keys, axis=None) % count
    starts = np.zeros(n_columns + 1, dtype=np.int64)
    np.cumsum(np.bincount(facet_pos.ravel(), minlength=n_columns), out=starts[1:])
    return starts.tolist(), cofacets


def _reduce(
    births: list[float], deaths: list[float], starts: list[int],
    cofacets: np.ndarray, cleared: set[int],
) -> tuple[list[float], list[float], dict[int, object]]:
    # One dimension's columns, latest first; returns the births and deaths of
    # the intervals found and the owner of every pivot.
    def column(c: int) -> set[int]:
        return set(cofacets[starts[c]:starts[c + 1]].tolist())

    owners: dict[int, object] = {}  # pivot -> its column: an index, or a reduced set
    born: list[float] = []
    died: list[float] = []
    for c in range(len(births) - 1, -1, -1):
        if c in cleared:
            continue
        born.append(births[c])
        lo = starts[c]
        if lo == starts[c + 1]:
            died.append(math.inf)
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
                died.append(math.inf)
                continue
            owners[pivot] = col
        else:
            owners[pivot] = c
        died.append(deaths[pivot])
    return born, died, owners


def boundary_reduce(complex_: FilteredComplex) -> Diagram:
    """Birth/death intervals for every homology dimension of the filtration,
    ordered by (dim, birth, death)."""
    if not len(complex_):
        return Diagram((), 0.0)
    top = complex_.dimension

    # tables[q] holds the sorted keys of the q-simplices and the position of
    # each in filtration order among them.  A vertex's key is its rank, and
    # its position is its dense id; the key of a higher simplex is the
    # position of its prefix face times the vertex count, plus its last dense id.
    vertices, values = complex_.block(0)
    tables = [_key_table(vertices[:, 0])]
    dense = tables[0][1]  # a vertex's dense id, by its rank
    nv = len(vertices)
    found: list[tuple[int, np.ndarray, np.ndarray]] = []  # (dim, births, deaths)
    cleared: set[int] = set()  # positions of q-simplices that killed a (q-1)-class
    births = values.tolist()
    for q in range(top):
        simplices, values = complex_.block(q + 1)
        deaths = values.tolist()
        rows = dense[simplices]
        del simplices
        facet_pos = np.empty(rows.shape, dtype=np.int64)
        for i in range(q + 2):
            facet_pos[:, i] = _locate(tables, np.delete(rows, i, axis=1))
        if q + 1 < top:
            tables.append(_key_table(facet_pos[:, -1] * nv + rows[:, -1]))
        del rows
        starts, cofacets = _coboundaries(facet_pos, len(births))
        del facet_pos

        born, died, owners = _reduce(births, deaths, starts, cofacets, cleared)
        born, died = np.array(born, dtype=np.float64), np.array(died, dtype=np.float64)
        by_pair = np.lexsort((died, born))
        found.append((q, born[by_pair], died[by_pair]))
        cleared = set(owners)
        births = deaths

    # Each top simplex no column claimed is immortal.  In filtration order
    # their births already ascend.
    alive = np.ones(len(values), dtype=bool)
    alive[np.fromiter(cleared, dtype=np.intp, count=len(cleared))] = False
    born = values[alive]
    found.append((top, born, np.full(len(born), math.inf)))
    return Diagram._from_arrays(
        np.concatenate([np.full(len(b), q, dtype=np.int64) for q, b, _ in found]),
        np.concatenate([b for _, b, _ in found]),
        np.concatenate([d for _, _, d in found]),
        complex_.max_value,
    )


def intervals_above_dim_zero(diagram: Diagram) -> Intervals:
    """Candidates for scale selection, computed once per diagram."""
    return diagram.candidates


def write_diagram_csv(diagram: Diagram, path: str | Path) -> None:
    """dim,birth,death rows; immortal deaths written as ``inf``."""
    rows = zip(diagram.dims.tolist(), diagram.births.tolist(), diagram.deaths.tolist())
    write_rows(path, ["dim", "birth", "death"], rows)


def write_diagram_json(diagram: Diagram, path: str | Path) -> None:
    """The diagram as ``{"intervals": [{"birth", "death", "dim"}, ...],
    "max_filtration"}``, ``"inf"`` for an immortal death, in the bytes that
    ``json.dumps(..., indent=2, sort_keys=True)`` writes.  Each interval is
    formatted here because ``indent`` makes ``json`` use its pure-Python
    encoder, which took most of ``tdabc persistence``'s time on large
    diagrams."""
    deaths = ['"inf"' if math.isinf(d) else repr(d) for d in diagram.deaths.tolist()]
    intervals = ",\n".join(
        '    {\n      "birth": %r,\n      "death": %s,\n      "dim": %d\n    }' % row
        for row in zip(diagram.births.tolist(), deaths, diagram.dims.tolist())
    )
    listed = f"[\n{intervals}\n  ]" if intervals else "[]"
    Path(path).write_text(
        f'{{\n  "intervals": {listed},\n'
        f'  "max_filtration": {json.dumps(diagram.max_filtration)}\n}}\n',
        encoding="utf-8",
    )
