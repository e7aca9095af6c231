"""Filtered simplicial complexes and their neighborhood operators.

A simplex is an ascending tuple of vertex ids.  A complex maps simplices to
filtration values and is face-closed: every face of a stored simplex is
stored, with a value no larger than its cofaces.  A complex is fixed when it
is made.

It is stored as three arrays in filtration order (by value, then dimension,
then vertex tuple): an ``int32`` matrix of vertex ranks padded with -1, the
dimensions and the ``float64`` values.  The ranks index an ascending array
of vertex ids, made with the complex and shared by its restrictions.
Builders hand over their simplices by dimension, lowest first, each
dimension's rows in ascending order, and each simplex's value as an integer
level, its position in the ascending table of distinct values (the
constructor finds the levels by ``np.unique``).  One ``np.sort`` of the
``int64`` keys ``level << shift | position`` then puts them in filtration
order, as a stable sort of the values would.  ``boundaries`` gives each
dimension's facets as positions in that order: an edge's are its vertices'
dense ids (their positions), a triangle's are read from one dense
vertex-pair table of edges, and deeper ones are searched, in sorted order,
by exact ``int64`` prefix-face keys.
Persistence reads them, and so does every restriction, a ``band``: a mask
over the arrays that keeps the facets of kept rows, top dimension down; a
sub-complex at a threshold (``subcomplex_at``) is a prefix.  ``rows``,
``boundaries``, ``max_value``, ``vertex_ids``, ``vertex_count``,
``dimension`` and every band read the arrays and build no tuple.  ``order``,
``value``, ``in``, ``star``, ``closure`` and ``link`` work on tuples, for
the unlabeled-link walk and as the paper's operators.  They read a tuple
index (each simplex as a tuple, in filtration order, with its value, and
each vertex's cofaces in filtration order) up to a cut, the complex's last
value.  The first of them to run builds the index from the arrays, once per
complex: a prefix holds every simplex valued up to its last value, so it
shares its parent's index and cuts it there.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import cache, cached_property, partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DuplicateSimplex, InvalidConfig, MonotonicityViolation, SimplexNotFound

Simplex = tuple[int, ...]

# A block is the q-simplices of a complex as a (count, q + 1) integer matrix
# of ascending vertex rows, with an integer array of their levels: each one's
# value is a table's entry at its level.
Block = tuple[np.ndarray, np.ndarray]

# A complex's simplices as tuples in filtration order, their values, and each
# vertex's cofaces in filtration order.
TupleIndex = tuple[list[Simplex], dict[Simplex, float], dict[int, list[Simplex]]]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonicalize ``vertices`` into an ascending tuple of distinct ids."""
    try:
        out = tuple(sorted(map(operator.index, vertices)))
    except TypeError:
        raise ValueError("vertex ids must be integers") from None
    if not out:
        raise ValueError("a simplex needs at least one vertex")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in simplex")
    if out[0] < 0:
        raise ValueError("vertex ids must be non-negative")
    return out


def facets(s: Simplex) -> Iterator[Simplex]:
    """Codimension-1 faces of ``s``; empty for a vertex."""
    if len(s) == 1:
        return
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :]


def proper_faces(s: Simplex) -> Iterator[Simplex]:
    """Every face of ``s`` except ``s`` itself."""
    for q in range(1, len(s)):
        yield from combinations(s, q)


def _filtration_sorted(blocks: list[Block], table: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The blocks, given by vertex rank and level, stacked into one -1-padded
    # int32 rank matrix, dimensions and values, permuted into filtration order.
    # The blocks come by dimension, lowest first, each with its rows
    # ascending, so stacked they are in (dimension, vertex tuple) order, and
    # sorting by level, then stacked position, completes the filtration
    # order.  One sort of the int64 keys ``level << shift | position`` does
    # that: no two keys are equal, and a level table is never longer than the
    # complex, so the keys hold below 2**62 for any complex under 2**31 rows.
    width = max((matrix.shape[1] for matrix, _ in blocks), default=1)
    total = sum(len(levels) for _, levels in blocks)
    ranks = np.full((total, width), -1, dtype=np.int32)
    dims = np.empty(total, dtype=np.int64)
    keys = np.empty(total, dtype=np.int64)
    at = 0
    for matrix, levels in blocks:
        count, size = matrix.shape
        ranks[at : at + count, :size] = matrix
        dims[at : at + count] = size - 1
        keys[at : at + count] = levels
        at += count
    shift = total.bit_length()
    keys <<= shift
    keys |= np.arange(total)
    keys.sort()
    perm = keys & ((1 << shift) - 1)
    return np.take(ranks, perm, axis=0), dims[perm], table[keys >> shift]


def _tuple_index(ranks: np.ndarray, dims: np.ndarray, values: np.ndarray,
                 ids: np.ndarray) -> TupleIndex:
    rows = ids[ranks].tolist()
    order = [tuple(row[: q + 1]) for row, q in zip(rows, dims.tolist())]
    cofaces: dict[int, list[Simplex]] = {}
    for s in order:
        for v in s:
            cofaces.setdefault(v, []).append(s)
    return order, dict(zip(order, values.tolist())), cofaces


class FilteredComplex:
    """Simplices with filtration values, ordered by (value, dim, lex)."""

    def __init__(self, simplices: Iterable[tuple[Iterable[int], float]] = ()) -> None:
        """Complex of ``(simplex, value)`` pairs, each listed after its facets
        and no cheaper than them; values are finite and non-negative, and a
        repeat must carry the same value."""
        values: dict[Simplex, float] = {}
        for s, value in simplices:
            key = simplex(s)
            value = float(value)
            if value < 0.0:
                raise MonotonicityViolation(f"negative filtration value {value}")
            if math.isnan(value):
                raise MonotonicityViolation(f"filtration value of {key} is NaN")
            if math.isinf(value):
                raise MonotonicityViolation(f"filtration value of {key} is infinite")
            stored = values.get(key)
            if stored is not None:
                if stored != value:
                    raise DuplicateSimplex(f"{key} already stored at {stored}, got {value}")
                continue
            for f in facets(key):
                fv = values.get(f)
                if fv is None:
                    raise MonotonicityViolation(f"face {f} of {key} is missing")
                if fv > value:
                    raise MonotonicityViolation(f"face {f} at {fv} exceeds {key} at {value}")
            values[key] = value
        by_size: dict[int, list[Simplex]] = {}
        for s in sorted(values):
            by_size.setdefault(len(s), []).append(s)
        ids = np.array(by_size.get(1, []), dtype=np.int64).reshape(-1)
        # Levels index the ascending distinct values, where adding 0.0 stores
        # a -0.0 value as 0.0 (and -0.0 finds it, as the two compare equal).
        table = np.unique(np.fromiter(values.values(), dtype=np.float64, count=len(values)))
        table += 0.0
        blocks = [
            (np.searchsorted(ids, np.array(group, dtype=np.int64)),
             np.searchsorted(table, np.fromiter(map(values.__getitem__, group),
                                                dtype=np.float64, count=len(group))))
            for _, group in sorted(by_size.items())
        ]
        self._store(*_filtration_sorted(blocks, table), ids)

    def _store(self, ranks: np.ndarray, dims: np.ndarray, values: np.ndarray,
               ids: np.ndarray, tuples: Callable[[], TupleIndex] | None = None) -> None:
        self._ranks = ranks
        self._dims = dims
        self._values = values
        self._ids = ids  # ascending; a restriction shares its parent's
        # The tuple index, built on first use and read up to this complex's
        # last value; a prefix is handed its parent's.  It holds arrays, never
        # a complex, so sharing it makes no reference cycle.
        self._tuples = tuples or cache(partial(_tuple_index, ranks, dims, values, ids))
        self._cut = float(values[-1]) if len(values) else -math.inf
        # Restrictions already built, keyed by their (lo, hi) prefix lengths.
        self._restrictions: dict[tuple[int, int], FilteredComplex] = {}

    @classmethod
    def _from_blocks(cls, blocks: list[Block], table: np.ndarray) -> "FilteredComplex":
        # Bulk load for builders that guarantee closure and monotonicity and
        # hand over their blocks by dimension, each with its rows ascending,
        # on the vertex ids 0..n-1, which are their own ranks, with levels
        # that index ``table``, the ascending distinct values.
        out = cls.__new__(cls)
        out._store(*_filtration_sorted(blocks, table), np.arange(len(blocks[0][1])))
        return out

    # -- array queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    @cached_property
    def vertex_ids(self) -> np.ndarray:
        return self._ids[np.sort(self._ranks[self._dims == 0, 0])]

    @property
    def vertex_count(self) -> int:
        return self.vertex_ids.size

    @property
    def dimension(self) -> int:
        return int(self._dims.max(initial=-1))

    @property
    def max_value(self) -> float:
        return float(self._values[-1]) if len(self._values) else 0.0

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Simplices of dimension one and up, in filtration order: an ``int32``
        matrix of their vertex rows, each vertex given by its rank and padded
        with -1; their values; and the ascending vertex ids that the ranks
        index.  A restriction's ranks index its parent's ids and may skip
        some, so those ids can be a superset of ``vertex_ids``."""
        cofaces = self._dims > 0
        width = int(self._dims.max(initial=0)) + 1
        return self._ranks[cofaces, :width], self._values[cofaces], self._ids

    def boundaries(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For each dimension q from 0 up, the q-simplices' values in filtration
        order and an ``int64`` matrix whose column i holds the position, among
        the (q-1)-simplices, of each one's facet without vertex i.  The reader
        owns each matrix: the generator keeps none that it has yielded."""
        top = self.dimension
        vertices = self._ranks[self._dims == 0, 0]
        nv = len(vertices)
        # A vertex's dense id is its position in filtration order, scattered by
        # rank, since a restriction's ranks may skip numbers.
        dense = np.empty(int(vertices.max(initial=-1)) + 1, dtype=np.int64)
        dense[vertices] = np.arange(nv)
        # edges[a, b] is the position of the edge with dense vertex row (a, b);
        # tables[k] holds the sorted keys of the (k + 2)-simplices and each one's
        # position among them, a key being its prefix face's position times the
        # vertex count, plus its last dense id.
        edges = np.empty((nv, nv), dtype=np.int64)
        tables: list[tuple[np.ndarray, np.ndarray]] = []

        def facets(q: int) -> tuple[np.ndarray, np.ndarray]:
            # Its locals go when it returns, so the generator holds no matrix it yielded.
            nonlocal edges, tables
            at = np.flatnonzero(self._dims == q)
            values = self._values[at]
            if q == 0:
                return values, np.empty((nv, 0), dtype=np.int64)
            rows = dense[np.take(self._ranks, at, axis=0)[:, : q + 1]]
            out = rows[:, ::-1]  # an edge's facets are its vertices, last one first
            if q > 1:
                # Facet i is the row without column i: the edge of its first two
                # columns is read from the table, then each prefix face searched,
                # with the queries sorted and their answers put back in order.
                out = np.empty(rows.shape, dtype=np.int64)
                for i in range(q + 1):
                    columns = [c for c in range(q + 1) if c != i]
                    pos = edges[rows[:, columns[0]], rows[:, columns[1]]]
                    for (keys, sorter), c in zip(tables, columns[2:], strict=True):
                        query = pos * nv + rows[:, c]
                        by_query = np.argsort(query)
                        pos[by_query] = sorter[np.searchsorted(keys, query[by_query])]
                    out[:, i] = pos
            if q == top:
                del edges, tables  # no face is looked up after the top's
            elif q == 1:
                edges[rows[:, 0], rows[:, 1]] = np.arange(len(rows))
            else:
                keys = out[:, -1] * nv + rows[:, -1]
                sorter = np.argsort(keys)  # the keys are distinct: any sort will do
                tables.append((keys[sorter], sorter))
            return values, out

        yield from map(facets, range(top + 1))

    # -- tuple index -----------------------------------------------------------

    def __contains__(self, s: object) -> bool:
        return self._tuples()[1].get(s, math.inf) <= self._cut

    def value(self, s: Iterable[int]) -> float:
        key = tuple(s)
        value = self._tuples()[1].get(key, math.inf)
        if value > self._cut:
            raise SimplexNotFound(f"simplex {key} is not in the complex")
        return value

    @property
    def order(self) -> list[Simplex]:
        """Filtration order: by value, then dimension, then vertex tuple."""
        return self._tuples()[0][: len(self)]

    # -- neighborhood operators --------------------------------------------

    def star(self, s: Iterable[int]) -> list[Simplex]:
        """Cofaces of ``s`` including ``s`` itself, in filtration order."""
        key = tuple(s)
        if key not in self:
            raise SimplexNotFound(f"simplex {key} is not in the complex")
        _, values, table = self._tuples()
        candidates = min((table[v] for v in key), key=len)
        candidates = candidates[: bisect_right(candidates, self._cut, key=values.__getitem__)]
        if len(key) == 1:
            return candidates
        sset = set(key)
        return [t for t in candidates if sset.issubset(t)]

    def closure(self, subset: Iterable[Iterable[int]]) -> set[Simplex]:
        """All faces of all members of ``subset``, members included."""
        out: set[Simplex] = set()
        for raw in subset:
            key = tuple(raw)
            if key not in self:
                raise SimplexNotFound(f"simplex {key} is not in the complex")
            out.add(key)
            out.update(proper_faces(key))
        return out

    def link(self, s: Iterable[int]) -> set[Simplex]:
        """Closed-star members sharing no vertex with ``s``."""
        key = tuple(s)
        closed_star = self.closure(self.star(key))
        sset = set(key)
        return {t for t in closed_star if sset.isdisjoint(t)}

    # -- restriction ---------------------------------------------------------

    def _prefix_length(self, threshold: float) -> int:
        # How many simplices have value at most ``threshold``.
        if math.isnan(threshold):
            raise InvalidConfig("a restriction threshold must not be NaN")
        return int(np.searchsorted(self._values, threshold, side="right"))

    def subcomplex_at(self, epsilon: float) -> "FilteredComplex":
        """Sub-complex of simplices with value at most ``epsilon``, a prefix of
        the arrays; the complex itself from ``max_value`` up."""
        return self.band(-math.inf, epsilon)

    def band(self, birth: float, death: float) -> "FilteredComplex":
        """Simplices with value in ``(birth, death]`` and all their faces; the
        complex itself when that is every simplex."""
        lo, hi = self._prefix_length(birth), self._prefix_length(death)
        if lo == 0 and hi == len(self):
            return self
        # Built once per pair of prefix lengths, as a mask over the first ``hi``
        # simplices (faces lie before their cofaces), so it needs no sort.  Top
        # dimension down, the facets of kept rows are kept, read from the
        # prefix's boundaries, so faces of faces are kept too.
        if (lo, hi) not in self._restrictions:
            ranks, dims, values = self._ranks[:hi], self._dims[:hi], self._values[:hi]
            at = slice(None)  # a prefix stays a view of the arrays
            if lo:
                at = np.arange(hi) >= lo
                faces = [f for _, f in self.band(-math.inf, death).boundaries()]
                for q in range(len(faces) - 1, 0, -1):
                    at[np.flatnonzero(dims == q - 1)[faces[q][at[dims == q]]]] = True
            sub = FilteredComplex.__new__(FilteredComplex)
            sub._store(ranks[at], dims[at], values[at], self._ids, None if lo else self._tuples)
            self._restrictions[lo, hi] = sub
        return self._restrictions[lo, hi]
