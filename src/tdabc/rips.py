"""Vietoris-Rips filtrations over a point cloud.

Vertices enter at value 0, every other simplex at the maximum pairwise
distance among its vertices, so faces never appear after their cofaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .complexes import FilteredComplex, Simplex
from .errors import CapacityExceeded, DimensionMismatch, InvalidConfig

METRICS = {"euclidean": "euclidean", "manhattan": "cityblock", "cosine": "cosine"}


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
        raise ValueError("point coordinates must be finite")
    d = cdist(pts, pts, metric=METRICS[metric])
    if not np.isfinite(d).all():
        raise ValueError(f"{metric} distance is undefined for some input rows")
    d = np.minimum(d, d.T)
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
    if n <= 1:
        return 0.0
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
    # the true count.
    n = dist.shape[0]
    deg = (dist <= r).sum(axis=1).astype(float) - 1.0
    total = float(n) + deg.sum() / 2.0
    if max_dim >= 2:
        total += (deg * (deg - 1.0) / 2.0).sum() / 3.0
    if max_dim >= 3:
        total += (deg * (deg - 1.0) * (deg - 2.0) / 6.0).sum() / 4.0
    if max_dim >= 4:
        # Rarely used; extend the same pattern one level at a time.
        from math import comb

        for q in range(4, max_dim + 1):
            total += sum(comb(int(d), q) for d in deg) / (q + 1.0)
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
    max_edge = config.max_edge
    if max_edge is None:
        max_edge = auto_max_edge(dist, config.max_dim, config.budget)

    values: dict[Simplex, float] = {}
    budget = config.budget

    def check(count: int) -> None:
        if count > budget:
            raise CapacityExceeded(
                f"simplex count passed the budget of {budget}; "
                f"tighten max_edge or max_dim (current cap {max_edge})"
            )

    for i in range(n):
        values[(i,)] = 0.0
    check(len(values))

    adjacent = dist <= max_edge
    np.fill_diagonal(adjacent, False)
    up = np.triu(adjacent)

    frontier: list[tuple[Simplex, float]] = []
    for i in range(n):
        js = np.flatnonzero(up[i])
        check(len(values) + len(js))
        for j in js:
            frontier.append(((i, int(j)), float(dist[i, j])))
            values[(i, int(j))] = float(dist[i, j])

    for _dim in range(2, config.max_dim + 1):
        grown: list[tuple[Simplex, float]] = []
        for s, val in frontier:
            mask = up[s[0]]
            for v in s[1:]:
                mask = mask & up[v]
            ks = np.flatnonzero(mask)
            if len(ks) == 0:
                continue
            check(len(values) + len(ks))
            ext_val = np.maximum(dist[list(s)][:, ks].max(axis=0), val)
            for k, v in zip(ks, ext_val):
                t = s + (int(k),)
                grown.append((t, float(v)))
                values[t] = float(v)
        if not grown:
            break
        frontier = grown

    return FilteredComplex._from_values(values)
