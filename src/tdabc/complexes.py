"""Filtered simplicial complexes and their neighborhood operators.

A simplex is an ascending tuple of vertex ids.  A complex maps simplices to
filtration values and is face-closed: every face of a stored simplex is
stored, with a value no larger than its cofaces.  A complex is fixed when it
is made, so its lazily built order, rows, coface table and sub-complexes
never go stale; a sub-complex at a threshold is a prefix of the order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import DuplicateSimplex, MonotonicityViolation, SimplexNotFound

Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonicalize ``vertices`` into an ascending tuple of distinct ids."""
    out = tuple(sorted(vertices))
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


class FilteredComplex:
    """Simplices with filtration values, ordered by (value, dim, lex)."""

    def __init__(self, simplices: Iterable[tuple[Iterable[int], float]] = ()) -> None:
        """Complex of ``(simplex, value)`` pairs, each listed after its facets
        and no cheaper than them; values are non-negative and not NaN, and a
        repeat must carry the same value."""
        values: dict[Simplex, float] = {}
        for s, value in simplices:
            key = simplex(s)
            value = float(value)
            if value < 0.0:
                raise MonotonicityViolation(f"negative filtration value {value}")
            if math.isnan(value):
                raise MonotonicityViolation(f"filtration value of {key} is NaN")
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
        self._values = values
        # Restrictions already built, keyed by epsilon or (birth, death).
        self._restrictions: dict[object, FilteredComplex] = {}

    @classmethod
    def _from_values(cls, values: dict[Simplex, float]) -> "FilteredComplex":
        # Bulk load for builders that guarantee closure and monotonicity.
        out = cls()
        out._values = values
        return out

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, s: object) -> bool:
        return s in self._values

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.order)

    @cached_property
    def vertex_count(self) -> int:
        return sum(1 for s in self._values if len(s) == 1)

    @property
    def dimension(self) -> int:
        if not self._values:
            return -1
        return max(len(s) for s in self._values) - 1

    @property
    def max_value(self) -> float:
        if not self._values:
            return 0.0
        return self._values[self.order[-1]]

    def value(self, s: Iterable[int]) -> float:
        key = tuple(s)
        try:
            return self._values[key]
        except KeyError:
            raise SimplexNotFound(f"simplex {key} is not in the complex") from None

    def simplices(self) -> Iterator[Simplex]:
        """Stored simplices in insertion order (cheaper than ``order``)."""
        return iter(self._values)

    @cached_property
    def _order(self) -> list[Simplex]:
        # Cached apart from ``order``, a plain property so perfbench can wrap it.
        return sorted(self._values, key=lambda s: (self._values[s], len(s), s))

    @property
    def order(self) -> list[Simplex]:
        """Filtration order: by value, then dimension, then vertex tuple."""
        return self._order

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Simplices of dimension one and up, in filtration order, as an
        ``int32`` matrix of vertex rows padded with -1, and their values."""
        cofaces = [s for s in self.order if len(s) > 1]
        width = max(map(len, cofaces), default=1)
        pad = (-1,) * width
        flat = chain.from_iterable((s + pad)[:width] for s in cofaces)
        matrix = np.fromiter(flat, dtype=np.int32, count=len(cofaces) * width)
        values = np.fromiter(map(self._values.__getitem__, cofaces),
                             dtype=np.float64, count=len(cofaces))
        return matrix.reshape(len(cofaces), width), values

    # -- neighborhood operators --------------------------------------------

    @cached_property
    def _cofaces(self) -> dict[int, list[Simplex]]:
        table: dict[int, list[Simplex]] = {}
        for s in self.order:
            for v in s:
                table.setdefault(v, []).append(s)
        return table

    def star(self, s: Iterable[int]) -> list[Simplex]:
        """Cofaces of ``s`` including ``s`` itself, in filtration order."""
        key = tuple(s)
        if key not in self._values:
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
            if key not in self._values:
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

    def _prefix_length(self, epsilon: float) -> int:
        return bisect_right(self.order, epsilon, key=self._values.__getitem__)

    def _restricted(self, key: object, members) -> "FilteredComplex":
        # Built once per key from ``members()``, a list in filtration order,
        # so that the sub-complex's own order needs no sort.
        if key not in self._restrictions:
            order = members()
            sub = FilteredComplex._from_values({s: self._values[s] for s in order})
            sub._order = order
            self._restrictions[key] = sub
        return self._restrictions[key]

    def subcomplex_at(self, epsilon: float) -> "FilteredComplex":
        """Sub-complex of simplices with value at most ``epsilon``, a prefix of
        the order; the complex itself from ``max_value`` up."""
        eps = float(epsilon)
        if eps >= self.max_value:
            return self
        return self._restricted(eps, lambda: self.order[: self._prefix_length(eps)])

    def band(self, birth: float, death: float) -> "FilteredComplex":
        """Simplices with value in ``(birth, death]`` and all their faces."""
        def members() -> list[Simplex]:
            lo, hi = self._prefix_length(birth), self._prefix_length(death)
            inside = self.order[lo:hi]
            # Faces valued at most ``birth`` lie before ``lo``.
            faces = set(chain.from_iterable(map(proper_faces, inside)))
            return [s for s in self.order[:lo] if s in faces] + inside
        return self._restricted((birth, death), members)
