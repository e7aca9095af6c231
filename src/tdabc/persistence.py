"""Persistent homology of a filtered complex over the two-element field.

``boundary_reduce`` follows Bauer's Ripser.  Dimension 0 is found by
union-find: the edges are walked in filtration order, and an edge that joins
two components kills the younger one (the elder rule), whose oldest vertex
gives the birth; the merging edges are cleared for dimension 1.  Each higher
dimension is found by cohomology with clearing; de Silva, Morozov and
Vejdemo-Johansson show that persistent cohomology has the same pairs as
homology.  The coboundary columns of the q-simplices are reduced in reverse
filtration order, and a column's pivot is its earliest cofacet.  A q-simplex
that killed a class of dimension q-1 gets no column (clearing).  A column
whose earliest cofacet has it as its latest facet (an apparent pair) keeps
that pivot, since no later column holds it, so every such column is paired
in one vectorized step.  A loop visits the other columns, latest first: one
whose earliest cofacet has no owner yet is paired at once, and only the
rest are reduced by column additions.  The top dimension has no coboundary,
so it gets no columns: each top simplex that no column claimed is an
immortal interval.

Everything is read from ``FilteredComplex.boundaries``, never from tuples:
each dimension's values in filtration order, which are the births and
deaths, and the positions of its simplices' facets.  Union-find reads the
edges' facets, their two vertices, and the coboundary columns of the
q-simplices are the facets of the (q+1)-simplices, gathered by facet with
one sort of packed ``int64`` keys, facet then cofacet.

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


def _components(
    births: list[float], deaths: list[float], rows: np.ndarray,
) -> tuple[list[float], list[float], set[int]]:
    # Dimension 0 by union-find over the edges in filtration order, each given
    # by its vertices' positions.  Each component's root is its oldest vertex,
    # the one of least position; an edge joining two components kills the
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


def _coboundaries(facet_pos: np.ndarray, n_columns: int) -> tuple[np.ndarray, np.ndarray]:
    # Column pointers and cofacet positions, each column ascending, from the
    # facet positions of every cofacet in filtration order.  A cofacet lists
    # a facet once, so the key ``facet << shift | cofacet`` is distinct (and
    # far below 2**63 for any complex that fits in memory); sorting the keys
    # lists each column's cofacets in ascending order, as a stable argsort of
    # the facet positions would, but faster.
    count = len(facet_pos)
    shift = count.bit_length()
    keys = facet_pos << shift
    keys |= np.arange(count)[:, None]
    cofacets = np.sort(keys, axis=None) & ((1 << shift) - 1)
    starts = np.zeros(n_columns + 1, dtype=np.int64)
    np.cumsum(np.bincount(facet_pos.ravel(), minlength=n_columns), out=starts[1:])
    return starts, cofacets


def _reduce(
    births: np.ndarray, deaths: np.ndarray, starts: np.ndarray, cofacets: np.ndarray,
    latest: np.ndarray, live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # One dimension's live columns; returns the births and deaths of the
    # intervals found and every pivot.  ``latest`` holds each cofacet's
    # latest facet.  A live column c is apparent when its earliest cofacet p
    # has c as its latest facet: no column after c holds p, because no
    # simplex after c is a facet of p, so c keeps p as its pivot and is
    # paired there and then, before the loop runs.  The loop reduces the
    # other columns, latest first; an apparent column is read from its
    # pivot's owner like any other.
    lo, hi = starts[:-1], starts[1:]
    empty = lo == hi  # no cofacet: the class never dies
    first = cofacets[np.minimum(lo, len(cofacets) - 1)]  # for an empty column, a placeholder
    apparent = live & ~empty & (latest[first] == np.arange(len(births)))
    owners: dict[int, object] = dict(  # pivot -> its column: an index, or a reduced set
        zip(first[apparent].tolist(), np.flatnonzero(apparent).tolist()))
    starts = starts.tolist()

    def column(c: int) -> set[int]:
        return set(cofacets[starts[c]:starts[c + 1]].tolist())

    rest = np.flatnonzero(live & ~empty & ~apparent)[::-1]
    pivots: list[int] = []  # each reduced column's pivot, or -1 when it sums to zero
    for c in rest.tolist():
        pivot = int(cofacets[starts[c]])
        if pivot in owners:
            col = column(c)
            while pivot in owners:
                other = owners[pivot]
                col ^= other if isinstance(other, set) else column(other)
                if not col:
                    break
                pivot = min(col)
            if not col:
                pivots.append(-1)
                continue
            owners[pivot] = col
        else:
            owners[pivot] = c
        pivots.append(pivot)
    reduced = np.array(pivots, dtype=np.int64)
    born = np.concatenate((births[live & empty], births[apparent], births[rest]))
    died = np.concatenate((np.full(np.count_nonzero(live & empty), math.inf),
                           deaths[first[apparent]],
                           np.where(reduced >= 0, deaths[reduced], math.inf)))
    return born, died, np.fromiter(owners, dtype=np.int64, count=len(owners))


def boundary_reduce(complex_: FilteredComplex) -> Diagram:
    """Birth/death intervals for every homology dimension of the filtration,
    ordered by (dim, birth, death)."""
    if not len(complex_):
        return Diagram(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), 0.0)
    faces = complex_.boundaries()
    births, _ = next(faces)
    found: list[tuple[int, np.ndarray, np.ndarray]] = []  # (dim, births, deaths)
    cleared = np.empty(0, dtype=np.int64)
    # The q-simplices' columns are read from the facets of the (q+1)-simplices;
    # ``cleared`` holds the positions of the q-simplices that killed a
    # (q-1)-class.  No ``enumerate``: it would hold the last matrix it handed over.
    for q in range(complex_.dimension):
        deaths, facet_pos = next(faces)
        if q == 0:
            born, died, merged = _components(births.tolist(), deaths.tolist(), facet_pos)
            born, died = np.array(born, dtype=np.float64), np.array(died, dtype=np.float64)
            cleared = np.fromiter(merged, dtype=np.int64, count=len(merged))
        else:
            live = np.ones(len(births), dtype=bool)
            live[cleared] = False
            latest = facet_pos[:, 0].copy()  # column by column: max(axis=1) is slower
            for column in facet_pos.T[1:]:
                np.maximum(latest, column, out=latest)
            starts, cofacets = _coboundaries(facet_pos, len(births))
            del facet_pos
            born, died, cleared = _reduce(births, deaths, starts, cofacets, latest, live)
        by_pair = np.lexsort((died, born))
        found.append((q, born[by_pair], died[by_pair]))
        births = deaths

    # Each top simplex no column claimed is immortal.  In filtration order
    # their births already ascend.
    alive = np.ones(len(births), dtype=bool)
    alive[cleared] = False
    born = births[alive]
    found.append((complex_.dimension, born, np.full(len(born), math.inf)))
    return Diagram(
        np.concatenate([np.full(len(b), q, dtype=np.int64) for q, b, _ in found]),
        np.concatenate([b for _, b, _ in found]),
        np.concatenate([d for _, _, d in found]),
        complex_.max_value,
    )


def intervals_above_dim_zero(diagram: Diagram) -> Intervals:
    """Candidates for scale selection, computed once per diagram."""
    return diagram.candidates

