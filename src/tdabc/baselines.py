"""k-nearest-neighbor baselines sharing the classifier's prediction type."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import EPSILON_FLOOR, AssociationTable, Prediction, choose_label
from .errors import InsufficientTraining, InvalidConfig

PROVENANCE_BASELINE = "baseline"


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    weighted: bool = False  # scale votes by inverse distance

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidConfig("k must be positive")


def knn_predict(
    dist: np.ndarray,
    table: AssociationTable,
    v: int,
    config: KnnConfig,
    rng: np.random.Generator,
) -> Prediction:
    """Majority (or inverse-distance) vote among the k nearest training vertices."""
    train = sorted(table.training)
    if config.k > len(train):
        raise InsufficientTraining(
            f"k={config.k} exceeds the {len(train)} training vertices"
        )
    row = dist[v, train]
    nearest = np.argsort(row, kind="stable")[: config.k]
    votes = np.zeros(table.n_classes)
    for pos in nearest:
        u = train[int(pos)]
        w = 1.0 / max(float(row[pos]), EPSILON_FLOOR) if config.weighted else 1.0
        votes[table.training[u]] += w
    label = choose_label(votes, rng)
    probability = votes / votes.sum()
    return Prediction(
        vertex=v,
        label=int(label),
        scores=tuple(float(x) for x in votes),
        probability=tuple(float(x) for x in probability),
        provenance=PROVENANCE_BASELINE,
    )


def knn_predict_all(
    dist: np.ndarray, table: AssociationTable, config: KnnConfig, seed: int = 0
) -> list[Prediction]:
    """One prediction per test vertex, tie-breaks seeded per vertex."""
    out = []
    for v in sorted(table.test_vertices):
        rng = np.random.default_rng([seed, v])
        out.append(knn_predict(dist, table, v, config, rng))
    return out
