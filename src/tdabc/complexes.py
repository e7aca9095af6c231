"""Filtered simplicial complexes and their neighborhood operators.

A simplex is an ascending tuple of vertex ids.  A complex maps simplices to
filtration values and is face-closed: every face of a stored simplex is
stored, with a value no larger than its cofaces.  Inserts happen while a
complex is being built; afterwards it is treated as read-only, which keeps
the lazily built order, coface and sub-complex caches valid.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

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

    def __init__(self) -> None:
        self._values: dict[Simplex, float] = {}
        self._n_vertices = 0
        self._order: list[Simplex] | None = None
        self._cofaces: dict[int, list[Simplex]] | None = None
        # Restrictions already built, keyed by epsilon or (birth, death).
        self._restrictions: dict[object, FilteredComplex] = {}

    @classmethod
    def _from_values(cls, values: dict[Simplex, float]) -> "FilteredComplex":
        # Bulk load for builders that guarantee closure and monotonicity.
        out = cls()
        out._values = values
        out._n_vertices = sum(1 for s in values if len(s) == 1)
        return out

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, s: object) -> bool:
        return s in self._values

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.order)

    @property
    def vertex_count(self) -> int:
        return self._n_vertices

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

    @property
    def order(self) -> list[Simplex]:
        """Filtration order: by value, then dimension, then vertex tuple."""
        if self._order is None:
            self._order = sorted(self._values, key=lambda s: (self._values[s], len(s), s))
        return self._order

    # -- construction ------------------------------------------------------

    def insert(self, s: Iterable[int], value: float) -> None:
        """Add ``s`` at ``value``; faces must already be present and cheaper."""
        key = simplex(s)
        value = float(value)
        if value < 0.0:
            raise MonotonicityViolation(f"negative filtration value {value}")
        stored = self._values.get(key)
        if stored is not None:
            if stored != value:
                raise DuplicateSimplex(f"{key} already stored at {stored}, got {value}")
            return
        for f in facets(key):
            fv = self._values.get(f)
            if fv is None:
                raise MonotonicityViolation(f"face {f} of {key} is missing")
            if fv > value:
                raise MonotonicityViolation(f"face {f} at {fv} exceeds {key} at {value}")
        self._values[key] = value
        if len(key) == 1:
            self._n_vertices += 1
        self._order = None
        self._cofaces = None
        self._restrictions = {}

    # -- neighborhood operators --------------------------------------------

    def _coface_lists(self) -> dict[int, list[Simplex]]:
        if self._cofaces is None:
            table: dict[int, list[Simplex]] = {}
            for s in self.order:
                for v in s:
                    table.setdefault(v, []).append(s)
            self._cofaces = table
        return self._cofaces

    def star(self, s: Iterable[int]) -> list[Simplex]:
        """Cofaces of ``s`` including ``s`` itself, in filtration order."""
        key = tuple(s)
        if key not in self._values:
            raise SimplexNotFound(f"simplex {key} is not in the complex")
        table = self._coface_lists()
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

    def link_via_star(self, s: Iterable[int]) -> set[Simplex]:
        """Link computed as vertex-set differences over the open star."""
        key = tuple(s)
        sset = set(key)
        out: set[Simplex] = set()
        for t in self.star(key):
            if t == key:
                continue
            out.add(tuple(v for v in t if v not in sset))
        return out

    # -- restriction ---------------------------------------------------------

    def _restricted(self, key: object, members) -> "FilteredComplex":
        # Built once per key, from the set ``members()`` returns, in filtration
        # order so that the sub-complex's own order needs no sort.
        if key not in self._restrictions:
            keep = members()
            values = {s: self._values[s] for s in self.order if s in keep}
            sub = self._restrictions[key] = FilteredComplex._from_values(values)
            sub._order = list(values)
        return self._restrictions[key]

    def subcomplex_at(self, epsilon: float) -> "FilteredComplex":
        """Sub-complex of simplices with value at most ``epsilon``; the complex
        itself (read-only, as every sub-complex) from ``max_value`` up."""
        eps = float(epsilon)
        if eps >= self.max_value:
            return self
        return self._restricted(eps, lambda: {s for s, v in self._values.items() if v <= eps})

    def band(self, birth: float, death: float) -> "FilteredComplex":
        """Simplices with value in ``(birth, death]`` and all their faces."""
        inside = (s for s, v in self._values.items() if birth < v <= death)
        return self._restricted((birth, death), lambda: self.closure(inside))
