"""Unit tests for the nearest-neighbor baselines."""

from __future__ import annotations

import numpy as np
import pytest

from tdabc.baselines import KnnConfig, knn_predict, knn_predict_all
from tdabc.classifier import AssociationTable
from tdabc.errors import InsufficientTraining
from tdabc.rips import pairwise_distances


def line_fixture():
    """Five training points on a line plus one test point near the left end."""
    points = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [0.4]])
    training = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
    table = AssociationTable(training, frozenset({5}), 2)
    return pairwise_distances(points), table


def test_k1_returns_nearest_class():
    dist, table = line_fixture()
    pred = knn_predict(dist, table, 5, KnnConfig(k=1), np.random.default_rng(0))
    assert pred.label == 0


def test_k5_majority_vote():
    dist, table = line_fixture()
    pred = knn_predict(dist, table, 5, KnnConfig(k=5), np.random.default_rng(0))
    assert pred.label == 1  # three class-1 training points out of five


def test_weighted_vote_can_flip_majority():
    dist, table = line_fixture()
    pred = knn_predict(dist, table, 5, KnnConfig(k=5, weighted=True), np.random.default_rng(0))
    # inverse-distance weights: 1/0.4 + 1/0.6 = 4.17 for class 0 vs
    # 1/1.6 + 1/2.6 + 1/3.6 = 1.29 for class 1
    assert pred.label == 0


def test_k_larger_than_training_is_rejected():
    dist, table = line_fixture()
    with pytest.raises(InsufficientTraining):
        knn_predict(dist, table, 5, KnnConfig(k=50), np.random.default_rng(0))


def test_probability_normalizes_votes():
    dist, table = line_fixture()
    pred = knn_predict(dist, table, 5, KnnConfig(k=5), np.random.default_rng(0))
    assert sum(pred.probability) == pytest.approx(1.0)
    assert pred.probability[1] == pytest.approx(3.0 / 5.0)


def test_tie_break_is_seed_deterministic():
    points = np.array([[0.0], [2.0], [1.0]])
    table = AssociationTable({0: 0, 1: 1}, frozenset({2}), 2)
    dist = pairwise_distances(points)
    labels = {
        knn_predict(dist, table, 2, KnnConfig(k=2), np.random.default_rng(9)).label
        for _ in range(5)
    }
    assert len(labels) == 1


def test_predict_all_covers_test_vertices_in_order():
    dist, table = line_fixture()
    preds = knn_predict_all(dist, table, KnnConfig(k=1))
    assert [p.vertex for p in preds] == [5]
    assert preds[0].provenance == "baseline"


def test_predict_all_deterministic_across_calls():
    points = np.array([[0.0], [2.0], [1.0], [1.0]])
    table = AssociationTable({0: 0, 1: 1}, frozenset({2, 3}), 2)
    dist = pairwise_distances(points)
    a = knn_predict_all(dist, table, KnnConfig(k=2), seed=3)
    b = knn_predict_all(dist, table, KnnConfig(k=2), seed=3)
    assert [(p.vertex, p.label) for p in a] == [(p.vertex, p.label) for p in b]
