"""Unit tests for the nearest-neighbor baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdabc.baselines as baselines
from tdabc.baselines import KnnConfig, knn_predict_all
from tdabc.classifier import EPSILON_FLOOR, AssociationTable
from tdabc.errors import InsufficientTraining
from tdabc.rips import pairwise_distances

from conftest import prediction_rows
from oracles import choose_label


def knn_reference(dist, table, config, seed=0):
    """Per-vertex loop: (vertex, label, votes, probabilities) per test vertex."""
    train = sorted(table.training)
    if table.test_vertices and config.k > len(train):
        raise InsufficientTraining(f"k={config.k} exceeds {len(train)}")
    out = []
    for v in sorted(table.test_vertices):
        row = dist[v, train]
        nearest = np.argsort(row, kind="stable")[: config.k]
        votes = np.zeros(table.n_classes)
        for pos in nearest:
            u = train[int(pos)]
            w = 1.0 / max(float(row[pos]), EPSILON_FLOOR) if config.weighted else 1.0
            votes[table.training[u]] += w
        label = choose_label(votes, np.random.default_rng([seed, v]))
        out.append((v, label, tuple(votes), tuple(votes / votes.sum())))
    return out


def line_fixture():
    """Five training points on a line plus one test point near the left end."""
    points = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [0.4]])
    training = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
    table = AssociationTable(training, frozenset({5}), 2)
    return pairwise_distances(points), table


def predict_one(dist, table, config, seed=0):
    (pred,) = knn_predict_all(dist, table, config, seed=seed)
    return pred


def test_k1_returns_nearest_class():
    dist, table = line_fixture()
    pred = predict_one(dist, table, KnnConfig(k=1))
    assert pred.label == 0


def test_k5_majority_vote():
    dist, table = line_fixture()
    pred = predict_one(dist, table, KnnConfig(k=5))
    assert pred.label == 1  # three class-1 training points out of five


def test_weighted_vote_can_flip_majority():
    dist, table = line_fixture()
    pred = predict_one(dist, table, KnnConfig(k=5, weighted=True))
    # inverse-distance weights: 1/0.4 + 1/0.6 = 4.17 for class 0 vs
    # 1/1.6 + 1/2.6 + 1/3.6 = 1.29 for class 1
    assert pred.label == 0


def test_k_larger_than_training_is_rejected():
    dist, table = line_fixture()
    with pytest.raises(InsufficientTraining):
        knn_predict_all(dist, table, KnnConfig(k=50))


def test_probability_normalizes_votes():
    dist, table = line_fixture()
    pred = predict_one(dist, table, KnnConfig(k=5))
    assert sum(pred.probability) == pytest.approx(1.0)
    assert pred.probability[1] == pytest.approx(3.0 / 5.0)


def test_tie_break_is_seed_deterministic():
    points = np.array([[0.0], [2.0], [1.0]])
    table = AssociationTable({0: 0, 1: 1}, frozenset({2}), 2)
    dist = pairwise_distances(points)
    labels = {predict_one(dist, table, KnnConfig(k=2), seed=9).label for _ in range(5)}
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


def test_empty_test_set_gives_no_predictions():
    dist, _ = line_fixture()
    table = AssociationTable({0: 0, 1: 1}, frozenset(), 2)
    assert prediction_rows(knn_predict_all(dist, table, KnnConfig(k=50))) == []


@given(
    seed=st.integers(0, 10_000),
    n_classes=st.integers(2, 4),
    weighted=st.booleans(),
    k_choice=st.sampled_from(["one", "even", "all", "any"]),
)
@settings(max_examples=150, deadline=None)
def test_vectorised_votes_equal_the_per_vertex_loop(seed, n_classes, weighted, k_choice):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    # Points on a small integer grid: many exactly equal distances.
    points = rng.integers(0, 3, size=(n, 2)).astype(float)
    dist = pairwise_distances(points)
    n_test = int(rng.integers(1, n - 1))
    test = rng.choice(n, size=n_test, replace=False).tolist()
    training = {v: int(rng.integers(0, n_classes)) for v in range(n) if v not in test}
    table = AssociationTable(training, frozenset(test), n_classes)
    n_train = len(training)
    k = {
        "one": 1,
        "even": max(2, 2 * (n_train // 2)),
        "all": n_train,
        "any": int(rng.integers(1, n_train + 1)),
    }[k_choice]
    k = min(k, n_train)
    config = KnnConfig(k=k, weighted=weighted)
    preds = knn_predict_all(dist, table, config, seed=seed)
    got = [(v, label, scores, prob) for v, label, scores, prob, _ in prediction_rows(preds)]
    assert got == knn_reference(dist, table, config, seed=seed)


def test_knn_and_wknn_share_one_neighbour_search(monkeypatch):
    """One table runs the search once for knn and wknn at one k, with records
    equal to fresh tables'; another ``dist`` object, even of equal values, or
    another k searches again, so a stale search is never read."""
    rng = np.random.default_rng(7)
    # Integer grid points: many equal distances, so the stable order matters.
    dist = pairwise_distances(rng.integers(0, 4, size=(40, 2)).astype(float))
    test = frozenset(range(0, 40, 3))
    training = {v: v % 3 for v in range(40) if v not in test}
    configs = [KnnConfig(k=5), KnnConfig(k=5, weighted=True)]

    def fresh(dist, config):
        return prediction_rows(knn_predict_all(dist, AssociationTable(training, test, 3), config))

    searches = []
    nearest = baselines._nearest

    def counted(*args):
        searches.append(args[0])
        return nearest(*args)

    monkeypatch.setattr(baselines, "_nearest", counted)
    table = AssociationTable(training, test, 3)
    got = [prediction_rows(knn_predict_all(dist, table, config)) for config in configs]
    assert len(searches) == 1
    searches.clear()
    assert got == [fresh(dist, config) for config in configs]
    assert len(searches) == 2

    searches.clear()
    copy = dist.copy()
    assert prediction_rows(knn_predict_all(copy, table, configs[0])) == got[0]
    knn_predict_all(copy, table, KnnConfig(k=3))
    assert [s is copy for s in searches] == [True, True]
    # A matrix of other values on the same table reads its own neighbours.
    other = dist[::-1, ::-1].copy()
    assert prediction_rows(knn_predict_all(other, table, configs[1])) == fresh(other, configs[1])
