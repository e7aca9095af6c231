"""Filtered simplicial complexes and their neighborhood operators.

A simplex is an ascending tuple of vertex ids.  A complex maps simplices to
filtration values and is face-closed: every face of a stored simplex is
stored, with a value no larger than its cofaces.  A complex is fixed when it
is made.

It is stored as three arrays in filtration order (by value, then dimension,
then vertex tuple): an ``int64`` vertex matrix padded with -1, the dimensions
and the ``float64`` values.  Builders hand over their simplices by dimension,
lowest first, each dimension's rows in ascending order, so one stable
``np.argsort`` of the values puts them in filtration order.  Every
restriction is a ``band``, and a sub-complex at a threshold (``subcomplex_at``)
is the band from ``-inf``, a prefix of these arrays.  ``rows``, ``block``,
``max_value``, ``vertex_ids``, ``vertex_count``, ``dimension`` and the
prefixes read the arrays and build no tuple.  ``order``, ``value``, ``in``,
``star``, ``closure``, ``link`` and the other bands work on tuples: the
first of them to run builds the tuple index (every simplex as a tuple, in
filtration order, with its value) from the complex's own arrays, once per
complex, sub-complexes included.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import DuplicateSimplex, InvalidConfig, MonotonicityViolation, SimplexNotFound

Simplex = tuple[int, ...]

# A block is the q-simplices of a complex as a (count, q + 1) int64 matrix of
# ascending vertex rows, with a float64 array of their values.
Block = tuple[np.ndarray, np.ndarray]


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


def _vertex_ranks(matrix: np.ndarray, ids: np.ndarray) -> np.ndarray:
    # ``matrix`` with each vertex id replaced by its rank among the ascending
    # ``ids``, and -1 padding kept; ids 0..n-1 are their own ranks.
    if ids.size and ids[-1] != ids.size - 1:
        return np.where(matrix < 0, -1, np.searchsorted(ids, matrix))
    return matrix


def _filtration_sorted(blocks: list[Block]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The blocks stacked into one -1-padded vertex matrix, dimensions and
    # values, permuted into filtration order.  The blocks come by dimension,
    # lowest first, each with its rows ascending, so stacked they are in
    # (dimension, vertex tuple) order, and a stable sort by value completes
    # the filtration order.
    width = max((matrix.shape[1] for matrix, _ in blocks), default=1)
    total = sum(len(values) for _, values in blocks)
    vertices = np.full((total, width), -1, dtype=np.int64)
    dims = np.empty(total, dtype=np.int64)
    at = 0
    for matrix, values in blocks:
        count, size = matrix.shape
        vertices[at : at + count, :size] = matrix
        dims[at : at + count] = size - 1
        at += count
    values = np.concatenate([v for _, v in blocks]) if blocks else np.empty(0)
    perm = np.argsort(values, kind="stable")
    return vertices[perm], dims[perm], values[perm]


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
        blocks = [
            (np.array(group, dtype=np.int64),
             np.fromiter(map(values.__getitem__, group), dtype=np.float64, count=len(group)))
            for _, group in sorted(by_size.items())
        ]
        self._store(*_filtration_sorted(blocks))

    def _store(self, vertices: np.ndarray, dims: np.ndarray, values: np.ndarray) -> None:
        self._vertices = vertices
        self._dims = dims
        self._values = values
        # Restrictions already built, keyed by their (lo, hi) prefix lengths.
        self._restrictions: dict[tuple[int, int], FilteredComplex] = {}

    @classmethod
    def _from_blocks(cls, blocks: list[Block]) -> "FilteredComplex":
        # Bulk load for builders that guarantee closure and monotonicity and
        # hand over their blocks by dimension, each with its rows ascending.
        out = cls.__new__(cls)
        out._store(*_filtration_sorted(blocks))
        return out

    # -- array queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    @cached_property
    def vertex_ids(self) -> np.ndarray:
        return np.sort(self._vertices[self._dims == 0, 0])

    @property
    def vertex_count(self) -> int:
        return self.vertex_ids.size

    @property
    def dimension(self) -> int:
        return int(self._dims.max(initial=-1))

    @property
    def max_value(self) -> float:
        return float(self._values[-1]) if len(self._values) else 0.0

    def block(self, q: int) -> Block:
        """The q-simplices in filtration order: an ``int64`` matrix of their
        vertex rows, each vertex given by its rank among the complex's vertex
        ids as in ``rows``, and their values."""
        mask = self._dims == q
        return _vertex_ranks(self._vertices[mask, : q + 1], self.vertex_ids), self._values[mask]

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Simplices of dimension one and up, in filtration order: an ``int32``
        matrix of their vertex rows, each vertex given by its rank among the
        complex's vertex ids and padded with -1; their values; and the
        ascending vertex ids that the ranks index."""
        ids = self.vertex_ids
        cofaces = self._dims > 0
        matrix = self._vertices[cofaces, : int(self._dims.max(initial=0)) + 1]
        return _vertex_ranks(matrix, ids).astype(np.int32), self._values[cofaces], ids

    # -- tuple index -----------------------------------------------------------

    @cached_property
    def _order(self) -> list[Simplex]:
        # Cached apart from ``order``, a plain property so perfbench can wrap it.
        rows = self._vertices.tolist()
        return [tuple(row[: q + 1]) for row, q in zip(rows, self._dims.tolist())]

    @cached_property
    def _index(self) -> dict[Simplex, float]:
        return dict(zip(self._order, self._values.tolist()))

    def __contains__(self, s: object) -> bool:
        return s in self._index

    def value(self, s: Iterable[int]) -> float:
        key = tuple(s)
        try:
            return self._index[key]
        except KeyError:
            raise SimplexNotFound(f"simplex {key} is not in the complex") from None

    @property
    def order(self) -> list[Simplex]:
        """Filtration order: by value, then dimension, then vertex tuple."""
        return self._order

    # -- neighborhood operators --------------------------------------------

    @cached_property
    def _cofaces(self) -> dict[int, list[Simplex]]:
        table: dict[int, list[Simplex]] = {}
        for s in self._order:
            for v in s:
                table.setdefault(v, []).append(s)
        return table

    def star(self, s: Iterable[int]) -> list[Simplex]:
        """Cofaces of ``s`` including ``s`` itself, in filtration order."""
        key = tuple(s)
        if key not in self._index:
            raise SimplexNotFound(f"simplex {key} is not in the complex")
        table = self._cofaces
        if len(key) == 1:
            return list(table[key[0]])
        candidates = min((table[v] for v in key), key=len)
        sset = set(key)
        return [t for t in candidates if sset.issubset(t)]

    def closure(self, subset: Iterable[Iterable[int]]) -> set[Simplex]:
        """All faces of all members of ``subset``, members included."""
        out: set[Simplex] = set()
        for raw in subset:
            key = tuple(raw)
            if key not in self._index:
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
        # Built once per pair of prefix lengths, from ascending positions in
        # the filtration order, so that the sub-complex's arrays need no sort.
        if (lo, hi) not in self._restrictions:
            if lo == 0:
                at = slice(0, hi)
            else:
                # Faces lie before their cofaces, so all of them before ``hi``.
                faces = self.closure(self._order[lo:hi])
                at = np.array([i for i, s in enumerate(self._order[:hi]) if s in faces],
                              dtype=np.intp)
            sub = FilteredComplex.__new__(FilteredComplex)
            sub._store(self._vertices[at], self._dims[at], self._values[at])
            self._restrictions[lo, hi] = sub
        return self._restrictions[lo, hi]
