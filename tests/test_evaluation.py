"""Unit and property tests for cross-validation splitting and metrics."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from tdabc import evaluation
from tdabc.datasets import make_gaussian_classes
from tdabc.errors import DegenerateClass, InvalidConfig, NoClassifiers, UndefinedAUC
from tdabc.evaluation import (
    EvaluationReport,
    FoldPlan,
    KnnSpec,
    TdabcSpec,
    _binary_auc,
    binary_rates,
    default_classifiers,
    f1,
    gmean,
    pr_auc,
    roc_auc_ovr_macro,
    roc_auc_per_class,
    run_experiment,
    stratified_splits,
)
from tdabc.rips import RipsConfig


# ---------------------------------------------------------------------------
# stratified splits
# ---------------------------------------------------------------------------


def test_splits_partition_the_data():
    labels = np.array([0] * 12 + [1] * 8)
    for _, _, train, test in stratified_splits(labels, FoldPlan(folds=4, repeats=2, seed=0)):
        combined = np.sort(np.concatenate([train, test]))
        assert np.array_equal(combined, np.arange(20))
        assert not set(train) & set(test)


def test_split_count_is_folds_times_repeats():
    labels = np.array([0] * 12 + [1] * 8)
    splits = stratified_splits(labels, FoldPlan(folds=4, repeats=3, seed=0))
    assert len(splits) == 12
    assert {(r, f) for r, f, _, _ in splits} == {(r, f) for r in range(3) for f in range(4)}


def test_every_class_in_every_training_split():
    labels = np.array([0] * 12 + [1] * 8)
    for _, _, train, _ in stratified_splits(labels, FoldPlan(folds=4, repeats=2, seed=1)):
        assert set(labels[train]) == {0, 1}


def test_stratified_fold_sizes_balanced():
    labels = np.array([0] * 10 + [1] * 10)
    for _, _, _, test in stratified_splits(labels, FoldPlan(folds=5, repeats=1, seed=0)):
        assert len(test) == 4
        assert np.bincount(labels[test]).tolist() == [2, 2]


def test_singleton_class_rejected():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(DegenerateClass):
        stratified_splits(labels, FoldPlan(folds=2, repeats=1, seed=0))


def test_tiny_class_warns_when_smaller_than_folds():
    labels = np.array([0] * 12 + [1] * 3)
    with pytest.warns(UserWarning):
        stratified_splits(labels, FoldPlan(folds=5, repeats=1, seed=0))


def test_splits_are_seed_deterministic():
    labels = np.array([0] * 12 + [1] * 8)
    a = stratified_splits(labels, FoldPlan(folds=4, repeats=2, seed=7))
    b = stratified_splits(labels, FoldPlan(folds=4, repeats=2, seed=7))
    for (_, _, ta, sa), (_, _, tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb)
        assert np.array_equal(sa, sb)


def test_plan_requires_two_folds():
    with pytest.raises(ValueError):
        FoldPlan(folds=1)


def test_plan_rejects_a_negative_seed():
    with pytest.raises(InvalidConfig):
        FoldPlan(seed=-1)


# ---------------------------------------------------------------------------
# binary rates and scalar metrics
# ---------------------------------------------------------------------------


def confusion_fixture():
    """TP=3, FP=1, TN=4, FN=2 with class 1 as positive."""
    truth = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
    return truth, pred


def test_binary_rates_hand_example():
    truth, pred = confusion_fixture()
    r = binary_rates(truth, pred, positive=1)
    assert abs(r.tnr - 0.8) <= 1e-12
    assert abs(r.fpr - 0.25) <= 1e-12  # false positives over predicted positives
    assert abs(r.fpr_conventional - 0.2) <= 1e-12
    assert abs(r.precision - 0.75) <= 1e-12
    assert abs(r.recall - 0.6) <= 1e-12
    assert not r.degenerate


def test_f1_hand_example():
    assert abs(f1(0.75, 0.6) - 2 * (0.75 * 0.6) / 1.35) <= 1e-12


def test_gmean_hand_example():
    assert abs(gmean(0.8, 0.6) - math.sqrt(0.48)) <= 1e-12


def test_zero_denominators_flagged_degenerate():
    r = binary_rates([0, 0], [0, 0], positive=1)
    assert r.recall == 0.0
    assert r.precision == 0.0
    assert r.degenerate


def test_f1_zero_when_both_zero():
    assert f1(0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# ROC-AUC and PR-AUC
# ---------------------------------------------------------------------------


def test_perfect_separation_auc_is_one():
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    truth = np.array([0, 0, 1, 1])
    assert roc_auc_ovr_macro(probs, truth) == pytest.approx(1.0)


def test_reversed_scores_auc_is_zero():
    probs = np.array([[0.1, 0.9], [0.2, 0.8], [0.8, 0.2], [0.9, 0.1]])
    truth = np.array([0, 0, 1, 1])
    assert roc_auc_ovr_macro(probs, truth) == pytest.approx(0.0)


def test_ties_give_half_credit():
    probs = np.array([[0.5, 0.5], [0.5, 0.5]])
    truth = np.array([0, 1])
    assert roc_auc_ovr_macro(probs, truth) == pytest.approx(0.5)


def test_single_class_auc_undefined():
    probs = np.array([[0.9, 0.1], [0.8, 0.2]])
    truth = np.array([0, 0])
    with pytest.raises(UndefinedAUC):
        roc_auc_ovr_macro(probs, truth)


def test_per_class_skips_one_sided_classes():
    probs = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]])
    truth = np.array([0, 1, 1])
    per_class = roc_auc_per_class(probs, truth)
    assert len(per_class) == 3
    assert math.isnan(per_class[2])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_auc_inversion_symmetry(seed):
    """Flipping binary scores mirrors the AUC around one half."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    truth = rng.integers(0, 2, size=n)
    if len(np.unique(truth)) < 2:
        truth[0], truth[-1] = 0, 1
    scores = rng.random(n)
    probs = np.column_stack([1 - scores, scores])
    flipped = np.column_stack([scores, 1 - scores])
    a = roc_auc_ovr_macro(probs, truth)
    b = roc_auc_ovr_macro(flipped, truth)
    assert a + b == pytest.approx(1.0)


def rank_auc(scores: np.ndarray, positive_mask: np.ndarray) -> float:
    """Reference: the Mann-Whitney U statistic from average ranks."""
    n_pos = int(positive_mask.sum())
    n_neg = len(positive_mask) - n_pos
    u = float(rankdata(scores)[positive_mask].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            st.booleans(),
        ),
        min_size=2,
        max_size=80,
    )
)
@settings(max_examples=200, deadline=None)
def test_binary_auc_equals_rank_form_with_ties(pairs):
    scores = np.array([s for s, _ in pairs])
    positive = np.array([p for _, p in pairs])
    assume(positive.any() and not positive.all())
    assert _binary_auc(scores, positive) == rank_auc(scores, positive)


def test_pr_auc_perfect_ranking():
    probs = np.array([[0.1, 0.9], [0.2, 0.8], [0.8, 0.2], [0.9, 0.1]])
    truth = np.array([1, 1, 0, 0])
    assert pr_auc(probs, truth, positive=1) == pytest.approx(1.0)


def test_pr_auc_hand_case():
    # Ranking by positive-class score: [pos, neg, pos, neg]
    probs = np.array([[0.1, 0.9], [0.3, 0.7], [0.5, 0.5], [0.7, 0.3]])
    truth = np.array([1, 0, 1, 0])
    # recall steps: 0.5 at precision 1.0, then 1.0 at precision 2/3
    expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
    assert pr_auc(probs, truth, positive=1) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# run_experiment and reports
# ---------------------------------------------------------------------------


def small_dataset():
    return make_gaussian_classes(dims=2, sizes=(14, 14), means=(0.0, 5.0), stdev=0.2, seed=0)


def small_plan():
    return FoldPlan(folds=2, repeats=1, seed=0)


def test_run_experiment_produces_records_per_classifier():
    report = run_experiment(
        small_dataset(),
        (TdabcSpec("tdabc-m"), KnnSpec("knn")),
        small_plan(),
        rips=RipsConfig(max_dim=2, budget=100_000),
    )
    classifiers = {r.classifier for r in report.records}
    assert classifiers == {"tdabc-m", "knn"}
    assert not report.failures


def test_macro_row_is_mean_of_class_rows():
    report = run_experiment(
        small_dataset(),
        (KnnSpec("knn"),),
        small_plan(),
    )
    by_fold: dict[tuple, list] = {}
    for r in report.records:
        by_fold.setdefault((r.repeat, r.fold), []).append(r)
    for rows in by_fold.values():
        macro = [r for r in rows if r.scope == "macro"]
        classes = [r for r in rows if r.scope != "macro"]
        assert len(macro) == 1
        class_f1 = [r.f1 for r in classes if not math.isnan(r.f1)]
        assert macro[0].f1 == pytest.approx(float(np.mean(class_f1)))


def test_separable_data_scores_perfectly():
    report = run_experiment(
        small_dataset(),
        (KnnSpec("knn"), TdabcSpec("tdabc-m")),
        small_plan(),
        rips=RipsConfig(max_dim=2, budget=100_000),
    )
    assert report.mean_metric("knn", "macro", "f1") == pytest.approx(1.0)
    assert report.mean_metric("tdabc-m", "macro", "f1") == pytest.approx(1.0)


def test_exactly_one_minority_class_per_fold():
    data = make_gaussian_classes(dims=2, sizes=(20, 6), means=(0.0, 5.0), stdev=0.2, seed=0)
    report = run_experiment(data, (KnnSpec("knn"),), small_plan())
    by_fold: dict[tuple, list] = {}
    for r in report.records:
        if r.scope != "macro":
            by_fold.setdefault((r.repeat, r.fold), []).append(r)
    for rows in by_fold.values():
        assert sum(1 for r in rows if r.minority) == 1


def test_minority_mean_tracks_smallest_class():
    data = make_gaussian_classes(dims=2, sizes=(20, 6), means=(0.0, 5.0), stdev=0.2, seed=0)
    report = run_experiment(data, (KnnSpec("knn"),), small_plan())
    assert report.minority_mean("knn", "f1") == pytest.approx(1.0)


def test_no_classifiers_rejected():
    with pytest.raises(NoClassifiers):
        run_experiment(small_dataset(), (), small_plan())


def test_run_experiment_lets_bugs_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not a fold failure")

    monkeypatch.setattr(evaluation, "classify_all", broken)
    with pytest.raises(RuntimeError):
        run_experiment(
            small_dataset(), (TdabcSpec("tdabc-m"),), small_plan(),
            rips=RipsConfig(max_dim=2, budget=100_000),
        )


def test_run_experiment_records_tdabc_errors_as_fold_failures():
    # 28 points in two folds leave 14 training vertices, fewer than k.
    report = run_experiment(small_dataset(), (KnnSpec("knn", k=20),), small_plan())
    assert not report.records
    assert len(report.failures) == 2
    assert all(f.error.startswith("InsufficientTraining") for f in report.failures)


@pytest.mark.parametrize(
    "spec", [KnnSpec("knn", k=0), TdabcSpec("tdabc-x", selector="bogus")]
)
def test_run_experiment_rejects_invalid_specs_before_any_work(monkeypatch, spec):
    def no_work(*args, **kwargs):
        raise RuntimeError("settings must be checked before any distance is computed")

    monkeypatch.setattr(evaluation, "pairwise_distances", no_work)
    with pytest.raises(InvalidConfig):
        run_experiment(small_dataset(), (KnnSpec("knn"), spec), small_plan())


def test_report_csv_layout(tmp_path):
    report = run_experiment(small_dataset(), (KnnSpec("knn"),), small_plan())
    path = tmp_path / "r.csv"
    report.write_csv(path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.records)
    assert {"classifier", "repeat", "fold", "scope", "f1", "dataset"} <= set(rows[0])


def test_report_json_summary(tmp_path):
    report = run_experiment(small_dataset(), (KnnSpec("knn"),), small_plan())
    path = tmp_path / "r.json"
    report.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["dataset"] == report.dataset
    text = path.read_text()
    canonical = json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=True)
    assert text.rstrip("\n") == canonical


def test_experiment_is_deterministic():
    a = run_experiment(small_dataset(), default_classifiers(), small_plan())
    b = run_experiment(small_dataset(), default_classifiers(), small_plan())
    assert [(r.classifier, r.repeat, r.fold, r.scope, r.f1) for r in a.records] == [
        (r.classifier, r.repeat, r.fold, r.scope, r.f1) for r in b.records
    ]
