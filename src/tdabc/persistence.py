"""Persistent homology of a filtered complex over the two-element field.

``boundary_reduce`` follows Bauer's Ripser.  Dimension 0 is found by
union-find: the edges are walked in filtration order, and an edge that joins
two components kills the younger one (the elder rule), whose oldest vertex
gives the birth; the merging edges are cleared for dimension 1.  Each higher
dimension is found by cohomology with clearing; de Silva, Morozov and
Vejdemo-Johansson show that persistent cohomology has the same pairs as
homology.  The coboundary columns of the q-simplices are reduced in reverse
filtration order, and a column's pivot is its earliest cofacet.  A q-simplex
that killed a class of dimension q-1 gets no column (clearing), a column
whose earliest cofacet has no owner yet is paired at once, and only the rest
are reduced by column additions.  The top dimension has no coboundary, so it
gets no columns: each top simplex that no column claimed is an immortal
interval.

Everything is read from the complex's arrays, never from tuples: each
dimension's vertex matrix and values come from ``FilteredComplex.block`` in
filtration order, so births and deaths are those values.  Facets are found
with numpy: each vertex gets a dense id (its position among the vertices),
looked up by its rank, which is how ``block`` gives it.  An edge is read
from one dense vertex-pair table of edge positions.  A deeper face is
searched: each simplex of dimension two and up gets an exact ``int64`` key
(the position of its prefix face, all vertices but the last, times the
vertex count, plus its last dense id), and the keys of one dimension are
searched with ``np.searchsorted``.  At ``max_dim`` 2 no search is left.

The result is a ``Diagram`` of three arrays in (dim, birth, death) order.
Selection reads the arrays; a ``PersistenceInterval`` object is made only
for an interval that is read through ``Diagram.intervals`` or
``Diagram.candidates``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class Diagram:
    """All intervals of a filtration as three read-only arrays, ``dims``,
    ``births`` and ``deaths`` (``math.inf`` for a class that never dies), plus
    the largest filtration value.  Two diagrams are equal when their arrays
    and largest values are."""

    dims: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    max_filtration: float

    def __post_init__(self) -> None:
        for array in (self.dims, self.births, self.deaths):
            array.flags.writeable = False
        object.__setattr__(self, "max_filtration", float(self.max_filtration))

    def __len__(self) -> int:
        return len(self.dims)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.max_filtration == other.max_filtration
                and np.array_equal(self.dims, other.dims)
                and np.array_equal(self.births, other.births)
                and np.array_equal(self.deaths, other.deaths))

    @cached_property
    def intervals(self) -> Intervals:
        return Intervals(self, np.arange(len(self)))

    @cached_property
    def candidates(self) -> Intervals:
        """Dim >= 1 intervals with a positive span once truncated at ``max_filtration``."""
        return Intervals(self, self.spans[3])

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """The candidates' lifetimes (death clamped at ``max_filtration``, minus
        birth) and births as arrays, the lifetimes' mean, summed left to right
        as the built-in ``sum`` of a list of floats does up to Python 3.11, and
        the candidates' positions."""
        lifetimes = np.minimum(self.deaths, self.max_filtration) - self.births
        at = np.flatnonzero((self.dims >= 1) & (lifetimes > 0.0))
        lifetimes = lifetimes[at]
        mean = float(np.add.accumulate(lifetimes)[-1]) / at.size if at.size else math.nan
        return lifetimes, self.births[at], mean, at


def _key_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The keys of one dimension sorted, and each sorted key's position; the
    # keys are distinct, so any sort gives the same order.
    sorter = np.argsort(keys)
    return keys[sorter], sorter


def _locate(
    edges: np.ndarray, tables: list[tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray, columns: list[int],
) -> np.ndarray:
    # Positions within their dimension of the simplices whose dense vertex
    # rows are ``rows[:, columns]``: the edge of the first two columns read
    # from the dense vertex-pair table, then one prefix face at a time by
    # search.
    nv = len(edges)
    pos = edges[rows[:, columns[0]], rows[:, columns[1]]]
    for (keys, sorter), c in zip(tables, columns[2:], strict=True):
        pos = sorter[np.searchsorted(keys, pos * nv + rows[:, c])]
    return pos


def _components(
    births: list[float], deaths: list[float], rows: np.ndarray,
) -> tuple[list[float], list[float], set[int]]:
    # Dimension 0 by union-find over the edges, given by their dense vertex
    # rows in filtration order.  Each component's root is its oldest vertex,
    # the one of least dense id; an edge joining two components kills the
    # younger one (the elder rule), with its root's birth.  Returns the
    # births and deaths of the intervals and the positions of the merging
    # edges.
    parent = list(range(len(births)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    born: list[float] = []
    died: list[float] = []
    merged: set[int] = set()
    left = len(births) - 1
    for e, (u, v) in enumerate(rows.tolist()):
        if not left:
            break
        u, v = find(u), find(v)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        parent[v] = u
        born.append(births[v])
        died.append(deaths[e])
        merged.add(e)
        left -= 1
    roots = [v for v in range(len(births)) if parent[v] == v]
    born += [births[v] for v in roots]
    died += [math.inf] * len(roots)
    return born, died, merged


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
        return Diagram(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), 0.0)
    top = complex_.dimension

    # A vertex's dense id is its position in filtration order, scattered by
    # rank, since a restriction's ranks may skip numbers.
    vertices, values = complex_.block(0)
    nv = len(vertices)
    dense = np.empty(int(vertices.max()) + 1, dtype=np.int64)  # a vertex's dense id, by its rank
    dense[vertices[:, 0]] = np.arange(nv)
    found: list[tuple[int, np.ndarray, np.ndarray]] = []  # (dim, births, deaths)
    cleared: set[int] = set()  # positions of q-simplices that killed a (q-1)-class
    births = values.tolist()
    # edges[a, b] is the position of the edge whose dense vertex row is
    # (a, b); tables[k] holds the sorted keys of the (k + 2)-simplices and
    # the position of each in filtration order among them, a key being the
    # position of the simplex's prefix face times the vertex count, plus its
    # last dense id.
    edges = np.empty((nv, nv), dtype=np.int64)
    tables: list[tuple[np.ndarray, np.ndarray]] = []
    for q in range(top):
        simplices, values = complex_.block(q + 1)
        deaths = values.tolist()
        rows = dense[simplices]
        del simplices
        if q == 0:
            born, died, cleared = _components(births, deaths, rows)
            edges[rows[:, 0], rows[:, 1]] = np.arange(len(rows))
        else:
            # Facet i of a row is the row without its column i.
            facet_pos = np.empty(rows.shape, dtype=np.int64)
            for i in range(q + 2):
                facet_pos[:, i] = _locate(edges, tables, rows, [c for c in range(q + 2) if c != i])
            if q + 1 < top:
                tables.append(_key_table(facet_pos[:, -1] * nv + rows[:, -1]))
            else:
                del edges, tables  # no face is looked up after the top's
            del rows
            starts, cofacets = _coboundaries(facet_pos, len(births))
            del facet_pos
            born, died, owners = _reduce(births, deaths, starts, cofacets, cleared)
            cleared = set(owners)
        born, died = np.array(born, dtype=np.float64), np.array(died, dtype=np.float64)
        by_pair = np.lexsort((died, born))
        found.append((q, born[by_pair], died[by_pair]))
        births = deaths

    # Each top simplex no column claimed is immortal.  In filtration order
    # their births already ascend.
    alive = np.ones(len(values), dtype=bool)
    alive[np.fromiter(cleared, dtype=np.intp, count=len(cleared))] = False
    born = values[alive]
    found.append((top, born, np.full(len(born), math.inf)))
    return Diagram(
        np.concatenate([np.full(len(b), q, dtype=np.int64) for q, b, _ in found]),
        np.concatenate([b for _, b, _ in found]),
        np.concatenate([d for _, _, d in found]),
        complex_.max_value,
    )


def intervals_above_dim_zero(diagram: Diagram) -> Intervals:
    """Candidates for scale selection, computed once per diagram."""
    return diagram.candidates

