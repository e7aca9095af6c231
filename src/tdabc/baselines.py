"""k-nearest-neighbor baselines sharing the classifier's prediction records.

knn and wknn differ only in their weights, so a fold's ``AssociationTable``
memoizes the neighbour search by k, with a weak reference to the distance
matrix it read: a call with another matrix searches again.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .classifier import EPSILON_FLOOR, AssociationTable, check_covers, predict, tally
from .errors import InsufficientTraining, InvalidConfig

PROVENANCE_BASELINE = "baseline"


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    weighted: bool = False  # scale votes by inverse distance

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidConfig("k must be positive")


def knn_predict_all(
    dist: np.ndarray, table: AssociationTable, config: KnnConfig, seed: int = 0
) -> np.recarray:
    """Majority (or inverse-distance) vote among each test vertex's k nearest
    training vertices: ``predict``'s records, one per test vertex in vertex
    order."""
    if seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")
    tests = sorted(table.test_vertices)
    if not tests:
        return predict(table, tests, np.zeros((0, table.n_classes)), seed, PROVENANCE_BASELINE)
    train = sorted(table.training)
    if config.k > len(train):
        raise InsufficientTraining(
            f"k={config.k} exceeds the {len(train)} training vertices"
        )
    check_covers(dist, max(tests[-1], train[-1]))
    k = config.k
    memo = table._neighbours.get(k)
    if memo is None or memo[0]() is not dist:
        memo = table._neighbours[k] = (weakref.ref(dist), *_nearest(dist, tests, train, k))
    _, nearest, near = memo
    labels = np.array([table.training[u] for u in train])[nearest]
    weights = 1.0 / np.maximum(near, EPSILON_FLOOR) if config.weighted else np.ones_like(near)
    # Row by row, nearest first: each row sums in per-vertex order.
    votes = tally(np.repeat(np.arange(len(tests)), k), labels.ravel(), weights.ravel(),
                  len(tests), table.n_classes)
    return predict(table, tests, votes, seed, PROVENANCE_BASELINE)


def _nearest(dist: np.ndarray, tests: list[int], train: list[int],
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each test vertex's k nearest training vertices, as read-only positions in
    ``train`` and their distances, nearest first; equal distances keep
    ascending training-id order."""
    block = dist[np.ix_(tests, train)]
    # Only entries up to each row's k-th smallest distance, ties included,
    # can be among its k nearest: gather them, in ascending training-id
    # order, into rows padded with inf.
    kth = np.partition(block, k - 1, axis=1)[:, [k - 1]]
    hit_rows, hit_cols = np.nonzero(block <= kth)
    counts = np.bincount(hit_rows, minlength=len(tests))
    slot = np.arange(len(hit_cols)) - np.repeat(np.cumsum(counts) - counts, counts)
    cut = np.zeros((len(tests), counts.max()), dtype=np.intp)
    cut[hit_rows, slot] = hit_cols
    dists = np.full(cut.shape, np.inf)
    dists[hit_rows, slot] = block[hit_rows, hit_cols]
    # Stable, so equal distances keep ascending training-id order.
    nearest = np.take_along_axis(cut, np.argsort(dists, axis=1, kind="stable")[:, :k], axis=1)
    near = np.take_along_axis(block, nearest, axis=1)
    nearest.flags.writeable = False
    near.flags.writeable = False
    return nearest, near
