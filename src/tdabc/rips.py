"""Vietoris-Rips filtrations over a point cloud.

Vertices enter at value 0, every other simplex at the maximum pairwise
distance among its vertices, so faces never appear after their cofaces.
``build_rips`` grows each dimension on integer levels: a simplex's level is
the position of its value in the ascending table of distinct edge values,
0.0 included for the vertices, so the largest level among its edges is its
own.  Each dimension is an ``int64`` vertex matrix with an integer levels
array, grown one block of frontier rows at a time.  A row gains its later
neighbours in ascending order, so each dimension's rows ascend as tuples
do, and ``FilteredComplex`` puts the blocks into filtration order by one
sort of packed integer keys, level then position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex
from .errors import CapacityExceeded, DimensionMismatch, InvalidConfig

METRICS = ("euclidean", "manhattan", "cosine")

# Mask cells (frontier rows times vertices) that build_rips grows at once.
_CHUNK_CELLS = 1 << 18


def pairwise_distances(points, metric: str = "euclidean") -> np.ndarray:
    """Symmetric distance matrix with a zero diagonal."""
    if metric not in METRICS:
        raise InvalidConfig(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    if isinstance(points, (list, tuple)):
        lengths = {len(np.atleast_1d(row)) for row in points}
        if len(lengths) > 1:
            raise DimensionMismatch(f"rows have mixed dimensions {sorted(lengths)}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d cloud, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidConfig("point coordinates must be finite")
    # Summed one coordinate at a time, as SciPy's cdist sums: euclidean and manhattan
    # equal it bit for bit, cosine up to the last bits.  Every term is symmetric, so d is.
    # Each term is made in one scratch matrix, and every step writes in place.
    d = np.zeros((len(pts), len(pts)))
    term = np.empty_like(d)
    with np.errstate(all="ignore"):  # overflow and 0/0 fail the check below
        for x in pts.T:
            if metric == "cosine":
                np.multiply.outer(x, x, out=term)
            else:
                np.subtract.outer(x, x, out=term)
                if metric == "manhattan":
                    np.abs(term, out=term)
                else:
                    np.multiply(term, term, out=term)
            d += term
        if metric == "euclidean":
            np.sqrt(d, out=d)
        elif metric == "cosine":
            norms = np.sqrt(np.diag(d))
            np.divide(d, np.multiply.outer(norms, norms, out=term), out=d)
            np.clip(d, -1.0, 1.0, out=d)
            np.subtract(1.0, d, out=d)
        del term
    if not np.isfinite(d).all():
        raise InvalidConfig(f"{metric} distance is undefined for some input rows")
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True)
class RipsConfig:
    """Caps for the filtration: top dimension, edge length, simplex budget."""

    max_dim: int = 3
    max_edge: float | None = None  # None picks a data-driven cap
    metric: str = "euclidean"
    budget: int = 500_000

    def __post_init__(self) -> None:
        if self.max_dim < 2:
            raise InvalidConfig("max_dim must be at least 2")
        if self.budget < 1:
            raise InvalidConfig("budget must be positive")
        if self.max_edge is not None and not self.max_edge >= 0:
            raise InvalidConfig("max_edge must be non-negative")
        if self.metric not in METRICS:
            raise InvalidConfig(f"unknown metric {self.metric!r}")


def _max_spanning_edge(dist: np.ndarray) -> float:
    # Prim's algorithm on the dense matrix; returns the largest edge the
    # tree needs, i.e. the smallest cap that keeps the complex connected.
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    worst = 0.0
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        worst = max(worst, float(masked[j]))
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return worst


def _simplex_count_bound(dist: np.ndarray, r: float, max_dim: int) -> float:
    # Per-vertex degree bound: a q-simplex is counted once per vertex via
    # neighbor subsets, so the sum over comb(degree, q) / (q + 1) dominates
    # the true count.  comb(degree, q) is the falling factorial over q!.
    deg = (dist <= r).sum(axis=1).astype(float) - 1.0
    total = float(dist.shape[0])
    falling, factorial = np.ones_like(deg), 1.0
    for q in range(1, max_dim + 1):
        falling = falling * (deg - (q - 1.0))
        factorial *= q
        total += (falling / factorial).sum() / (q + 1.0)
    return total


def auto_max_edge(dist: np.ndarray, max_dim: int, budget: int) -> float:
    """Edge cap: twice the largest spanning-tree edge, shrunk to fit the budget."""
    n = dist.shape[0]
    if n <= 1:
        return 0.0
    cap = min(2.0 * _max_spanning_edge(dist), float(dist.max()))
    if _simplex_count_bound(dist, cap, max_dim) <= budget:
        return cap
    grid = np.unique(dist[np.triu_indices(n, k=1)])
    grid = grid[grid <= cap]
    lo, hi = 0, len(grid)  # grid[:lo] always fits
    while lo < hi:
        mid = (lo + hi) // 2
        if _simplex_count_bound(dist, float(grid[mid]), max_dim) <= budget:
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return 0.0
    return float(grid[lo - 1])


def build_rips(dist: np.ndarray, config: RipsConfig | None = None) -> FilteredComplex:
    """Filtered Rips complex on ``dist`` under the caps in ``config``."""
    if config is None:
        config = RipsConfig()
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise DimensionMismatch(f"distance matrix must be square, got {dist.shape}")
    # A NaN entry makes both comparisons false.
    if dist.size and not (dist.min() >= 0.0 and dist.max() < math.inf):
        raise InvalidConfig("distance entries must be non-negative and not NaN or infinite")
    budget = config.budget
    # No cap can help when the vertices alone pass the budget.
    if n > budget:
        raise CapacityExceeded(
            f"the {n} vertices exceed the budget of {budget} simplices; raise --budget"
        )
    max_edge = config.max_edge
    if max_edge is None:
        max_edge = auto_max_edge(dist, config.max_dim, budget)

    def check(count: int) -> None:
        if count > budget:
            raise CapacityExceeded(
                f"simplex count passed the budget of {budget}; "
                f"tighten max_edge or max_dim (current cap {max_edge})"
            )

    up = np.triu(dist <= max_edge, k=1)
    check(n + int(np.count_nonzero(up)))  # before the level matrix is made
    # level[a, b] is the level of edge (a, b), a < b: the position of its value
    # in ``table``, the ascending distinct edge values and 0.0, the vertices'
    # value and so level 0.  Adding 0.0 stores a -0.0 distance as 0.0.
    edges = np.flatnonzero(up)
    table, inverse = np.unique(np.append(dist.ravel()[edges], 0.0), return_inverse=True)
    table += 0.0
    level = np.zeros(n * n, dtype=np.int32 if len(table) < 2**31 else np.int64)
    level[edges] = inverse[:-1]
    level = level.reshape(n, n)

    # Each dimension grows from the one below: a simplex gains every later
    # vertex adjacent to all of its vertices, and its level is the largest of
    # its parent's and the new edges'.  The frontier is read in chunks of
    # about _CHUNK_CELLS mask cells; np.nonzero lists a chunk's new simplices
    # by frontier row, then by added vertex, and they are counted against the
    # budget before they are stored.
    step = max(1, _CHUNK_CELLS // max(n, 1))
    frontier = np.arange(n, dtype=np.int64)[:, None]
    frontier_levels = np.zeros(n, dtype=level.dtype)
    blocks = [(frontier, frontier_levels)]
    count = n
    for _dim in range(1, config.max_dim + 1):
        grown: list[np.ndarray] = []
        grown_levels: list[np.ndarray] = []
        for lo in range(0, len(frontier), step):
            rows = frontier[lo : lo + step]
            mask = up[rows[:, 0]]
            for j in range(1, rows.shape[1]):
                mask &= up[rows[:, j]]
            at, added = np.nonzero(mask)
            if not len(added):
                continue
            count += len(added)
            check(count)
            parents = rows[at]
            levels = frontier_levels[lo : lo + step][at]
            for j in range(parents.shape[1]):
                np.maximum(levels, level[parents[:, j], added], out=levels)
            grown.append(np.column_stack((parents, added)))
            grown_levels.append(levels)
        if not grown:
            break
        frontier = np.concatenate(grown)
        frontier_levels = np.concatenate(grown_levels)
        blocks.append((frontier, frontier_levels))

    return FilteredComplex._from_blocks(blocks, table)
