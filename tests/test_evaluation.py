"""Unit and property tests for cross-validation splitting and metrics."""

from __future__ import annotations

import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import tdabc.evaluation as evaluation
from tdabc.datasets import load_bundled, make_gaussian_classes
from tdabc.errors import DegenerateClass, InvalidConfig, NoClassifiers
from tdabc.evaluation import (
    METRIC_FIELDS,
    EvaluationReport,
    FoldPlan,
    KnnSpec,
    TdabcSpec,
    default_classifiers,
    fold_metrics,
    ranking_aucs,
    run_experiment,
    stratified_splits,
)
from tdabc.rips import RipsConfig

from oracles import _binary_auc, binary_rates, dealt_splits, f1, gmean, pr_auc, roc_auc_per_class


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


def test_more_folds_than_the_largest_class_rejected():
    labels = np.array([0] * 4 + [1] * 4)
    assert all(len(test) for *_, test in stratified_splits(labels, FoldPlan(folds=4, repeats=1)))
    with pytest.raises(InvalidConfig, match=r"folds is 5 .* largest class has 4 members"):
        stratified_splits(labels, FoldPlan(folds=5, repeats=1, seed=0))


def test_splits_are_seed_deterministic():
    labels = np.array([0] * 12 + [1] * 8)
    a = stratified_splits(labels, FoldPlan(folds=4, repeats=2, seed=7))
    b = stratified_splits(labels, FoldPlan(folds=4, repeats=2, seed=7))
    for (_, _, ta, sa), (_, _, tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb)
        assert np.array_equal(sa, sb)


@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=40),
    st.integers(2, 5),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_splits_equal_the_dealt_oracle(labels, folds, repeats, seed):
    labels = np.array(labels)
    plan = FoldPlan(folds=folds, repeats=repeats, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = dealt_splits(labels, plan)
        except (DegenerateClass, InvalidConfig) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                stratified_splits(labels, plan)
            return
        got = stratified_splits(labels, plan)
    assert len(got) == len(expected)
    for (r, f, train, test), (r0, f0, train0, test0) in zip(got, expected):
        assert (r, f) == (r0, f0)
        assert train.dtype == train0.dtype and np.array_equal(train, train0)
        assert test.dtype == test0.dtype and np.array_equal(test, test0)


def test_plan_requires_two_folds():
    with pytest.raises(ValueError):
        FoldPlan(folds=1)


def test_plan_rejects_a_negative_seed():
    with pytest.raises(InvalidConfig):
        FoldPlan(seed=-1)


# ---------------------------------------------------------------------------
# fold metrics from one confusion matrix
# ---------------------------------------------------------------------------


def class_rates(truth, pred, positive, n_classes=2):
    """``fold_metrics``' row for ``positive`` as a metric-to-value dict, and
    its degenerate flag, with one-hot probabilities."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    table, degenerate = fold_metrics(truth, pred, np.eye(n_classes)[pred], n_classes)
    return dict(zip(METRIC_FIELDS, table.tolist()[positive])), bool(degenerate[positive])


def confusion_fixture():
    """TP=3, FP=1, TN=4, FN=2 with class 1 as positive."""
    truth = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
    return truth, pred


def test_binary_rates_hand_example():
    truth, pred = confusion_fixture()
    r, degenerate = class_rates(truth, pred, positive=1)
    assert abs(r["tnr"] - 0.8) <= 1e-12
    assert abs(r["fpr"] - 0.25) <= 1e-12  # false positives over predicted positives
    assert abs(r["fpr_conventional"] - 0.2) <= 1e-12
    assert abs(r["precision"] - 0.75) <= 1e-12
    assert abs(r["recall"] - 0.6) <= 1e-12
    assert not degenerate


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=30),
       st.integers(0, 2))
def test_binary_rates_count_each_pair_once(pairs, positive):
    truth = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    tp = sum(t == positive and p == positive for t, p in pairs)
    fp = sum(t != positive and p == positive for t, p in pairs)
    fn = sum(t == positive and p != positive for t, p in pairs)
    tn = len(pairs) - tp - fp - fn
    r, _ = class_rates(truth, pred, positive, n_classes=3)
    assert all(type(r[m]) is float for m in ("recall", "precision", "tnr", "fpr"))  # repr in CSVs
    assert r["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
    assert r["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
    assert r["tnr"] == (tn / (tn + fp) if tn + fp else 0.0)
    assert r["fpr_conventional"] == (fp / (fp + tn) if fp + tn else 0.0)


def test_f1_hand_example():
    assert abs(f1(0.75, 0.6) - 2 * (0.75 * 0.6) / 1.35) <= 1e-12


def test_gmean_hand_example():
    assert abs(gmean(0.8, 0.6) - math.sqrt(0.48)) <= 1e-12


def test_zero_denominators_flagged_degenerate():
    r, degenerate = class_rates([0, 0], [0, 0], positive=1)
    assert r["recall"] == 0.0
    assert r["precision"] == 0.0
    assert degenerate


def test_f1_zero_when_both_zero():
    assert f1(0.0, 0.0) == 0.0


@st.composite
def folds(draw):
    """A fold's truth, predictions and probabilities over 2-5 classes, each
    side drawn from its own subset of the classes, so some classes are
    never predicted and some are absent from the fold."""
    n_classes = draw(st.integers(2, 5))
    classes = st.sets(st.integers(0, n_classes - 1), min_size=1)
    truth_from = sorted(draw(classes))
    pred_from = sorted(draw(classes))
    size = draw(st.integers(0, 40))
    truth = draw(st.lists(st.sampled_from(truth_from), min_size=size, max_size=size))
    pred = draw(st.lists(st.sampled_from(pred_from), min_size=size, max_size=size))
    probs = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                          min_size=size * n_classes, max_size=size * n_classes))
    return (np.array(truth, dtype=np.int64), np.array(pred, dtype=np.int64),
            np.array(probs).reshape(size, n_classes), n_classes)


@given(folds())
@settings(max_examples=200, deadline=None)
def test_fold_metrics_equal_the_per_class_oracle(fold):
    truth, pred, probs, n_classes = fold
    table, degenerate = fold_metrics(truth, pred, probs, n_classes)
    assert table.shape == (n_classes, len(METRIC_FIELDS))
    aucs = roc_auc_per_class(probs, truth)
    for c in range(n_classes):
        r = binary_rates(truth, pred, c)
        expected = [r.precision, r.recall, f1(r.precision, r.recall), r.tnr, r.fpr,
                    r.fpr_conventional, gmean(r.tnr, r.recall), aucs[c],
                    pr_auc(probs, truth, c)]
        assert np.array_equal(table[c], expected, equal_nan=True)
        assert degenerate[c] == bool(r.degenerate)


# ---------------------------------------------------------------------------
# ROC-AUC and PR-AUC
# ---------------------------------------------------------------------------


def roc_aucs(probs: np.ndarray, truth: np.ndarray) -> list[float]:
    """Each class's one-vs-rest ROC AUC from ``ranking_aucs``."""
    return [ranking_aucs(probs[:, c], truth == c)[0] for c in range(probs.shape[1])]


def class_pr_auc(probs: np.ndarray, truth: np.ndarray, positive: int) -> float:
    return ranking_aucs(probs[:, positive], truth == positive)[1]


@st.composite
def rankings(draw):
    """Scores and a relevance mask of 0-39 rows: half the time from a grid of
    tied values with 1/3 and 2/3, sometimes all equal, sometimes all relevant
    or none."""
    size = draw(st.integers(0, 39))
    if draw(st.booleans()):
        grid = st.sampled_from([0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0])
        scores = draw(st.lists(grid, min_size=size, max_size=size))
    else:
        scores = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    if size and draw(st.integers(0, 9)) == 0:
        scores = [scores[0]] * size
    relevant = draw(st.one_of(
        st.lists(st.booleans(), min_size=size, max_size=size),
        st.sampled_from([[True] * size, [False] * size]),
    ))
    return np.array(scores, dtype=float), np.array(relevant, dtype=bool)


@given(rankings())
@settings(max_examples=300, deadline=None)
def test_ranking_aucs_equal_the_pairwise_and_sorted_oracles(ranking):
    scores, relevant = ranking
    probs = np.column_stack([1.0 - scores, scores])
    truth = relevant.astype(np.int64)
    roc, pr = ranking_aucs(scores, relevant)
    assert np.array_equal([roc], [_binary_auc(scores, relevant)], equal_nan=True)
    assert np.array_equal([pr], [pr_auc(probs, truth, 1)], equal_nan=True)
    assert type(roc) is float and type(pr) is float


def test_perfect_separation_auc_is_one():
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    truth = np.array([0, 0, 1, 1])
    assert roc_aucs(probs, truth) == pytest.approx([1.0, 1.0])


def test_reversed_scores_auc_is_zero():
    probs = np.array([[0.1, 0.9], [0.2, 0.8], [0.8, 0.2], [0.9, 0.1]])
    truth = np.array([0, 0, 1, 1])
    assert roc_aucs(probs, truth) == pytest.approx([0.0, 0.0])


def test_ties_give_half_credit():
    probs = np.array([[0.5, 0.5], [0.5, 0.5]])
    truth = np.array([0, 1])
    assert roc_aucs(probs, truth) == pytest.approx([0.5, 0.5])


def test_per_class_skips_one_sided_classes():
    probs = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]])
    truth = np.array([0, 1, 1])
    per_class = roc_aucs(probs, truth)
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
    a = roc_aucs(probs, truth)
    b = roc_aucs(flipped, truth)
    assert np.add(a, b) == pytest.approx([1.0, 1.0])


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
def test_roc_auc_equals_rank_form_with_ties(pairs):
    scores = np.array([s for s, _ in pairs])
    positive = np.array([p for _, p in pairs])
    assume(positive.any() and not positive.all())
    assert ranking_aucs(scores, positive)[0] == rank_auc(scores, positive)


def test_pr_auc_perfect_ranking():
    probs = np.array([[0.1, 0.9], [0.2, 0.8], [0.8, 0.2], [0.9, 0.1]])
    truth = np.array([1, 1, 0, 0])
    assert class_pr_auc(probs, truth, positive=1) == pytest.approx(1.0)


def test_pr_auc_hand_case():
    # Ranking by positive-class score: [pos, neg, pos, neg]
    probs = np.array([[0.1, 0.9], [0.3, 0.7], [0.5, 0.5], [0.7, 0.3]])
    truth = np.array([1, 0, 1, 0])
    # recall steps: 0.5 at precision 1.0, then 1.0 at precision 2/3
    expected = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
    assert class_pr_auc(probs, truth, positive=1) == pytest.approx(expected)


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
        (TdabcSpec(name="tdabc-m"), KnnSpec(name="knn")),
        small_plan(),
        rips=RipsConfig(max_dim=2, budget=100_000),
    )
    classifiers = {r.classifier for r in report.records}
    assert classifiers == {"tdabc-m", "knn"}
    assert not report.failures
    # Python scalars: ``repr(np.float64(x))`` would print ``np.float64(x)``.
    for r in report.records:
        assert all(type(getattr(r, m)) is float for m in METRIC_FIELDS)
        assert type(r.minority) is bool and type(r.degenerate) is bool


def test_macro_row_is_mean_of_class_rows():
    report = run_experiment(
        small_dataset(),
        (KnnSpec(name="knn"),),
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


@pytest.mark.parametrize(
    "values",
    [[1e16, 1.0, -1e16], [0.1] * 10, [1.0, math.nan, 1e-16, 1e-16], [math.nan], []],
)
def test_finite_mean_adds_left_to_right(values):
    """The report means equal a plain loop's on every Python: a compensated sum,
    as the built-in ``sum`` is from 3.12 on, gives 1/3 and 0.1 on the first two."""
    total, count = 0.0, 0
    for v in values:
        if not math.isnan(v):
            total += v
            count += 1
    got = evaluation._finite_mean(values)
    if count:
        assert got == total / count
    else:
        assert math.isnan(got)


def test_separable_data_scores_perfectly():
    report = run_experiment(
        small_dataset(),
        (KnnSpec(name="knn"), TdabcSpec(name="tdabc-m")),
        small_plan(),
        rips=RipsConfig(max_dim=2, budget=100_000),
    )
    assert report.mean_metric("knn", "macro", "f1") == pytest.approx(1.0)
    assert report.mean_metric("tdabc-m", "macro", "f1") == pytest.approx(1.0)


def test_exactly_one_minority_class_per_fold():
    data = make_gaussian_classes(dims=2, sizes=(20, 6), means=(0.0, 5.0), stdev=0.2, seed=0)
    report = run_experiment(data, (KnnSpec(name="knn"),), small_plan())
    by_fold: dict[tuple, list] = {}
    for r in report.records:
        if r.scope != "macro":
            by_fold.setdefault((r.repeat, r.fold), []).append(r)
    for rows in by_fold.values():
        assert sum(1 for r in rows if r.minority) == 1


def test_minority_mean_tracks_smallest_class():
    data = make_gaussian_classes(dims=2, sizes=(20, 6), means=(0.0, 5.0), stdev=0.2, seed=0)
    report = run_experiment(data, (KnnSpec(name="knn"),), small_plan())
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
            small_dataset(), (TdabcSpec(name="tdabc-m"),), small_plan(),
            rips=RipsConfig(max_dim=2, budget=100_000),
        )


def test_run_experiment_records_tdabc_errors_as_fold_failures():
    # 28 points in two folds leave 14 training vertices, fewer than k.
    report = run_experiment(small_dataset(), (KnnSpec(name="knn", k=20),), small_plan())
    assert not report.records
    assert len(report.failures) == 2
    assert all(f.error.startswith("InsufficientTraining") for f in report.failures)


@pytest.mark.parametrize(
    "make",
    [lambda: KnnSpec(name="knn", k=0), lambda: TdabcSpec(name="tdabc-x", selector="bogus")],
)
def test_invalid_specs_cannot_be_made(make):
    with pytest.raises(InvalidConfig):
        make()


# Each shares the name "knn" with the roster's first entry; the first two
# would pool other settings into its summary cell.
@pytest.mark.parametrize(
    "spec", [KnnSpec(name="knn", weighted=True), TdabcSpec(name="knn"), KnnSpec(name="knn")]
)
def test_run_experiment_rejects_invalid_specs_before_any_work(monkeypatch, spec):
    def no_work(*args, **kwargs):
        raise RuntimeError("settings must be checked before any distance is computed")

    monkeypatch.setattr(evaluation, "pairwise_distances", no_work)
    with pytest.raises(InvalidConfig, match="classifier names repeat: knn"):
        run_experiment(small_dataset(), (KnnSpec(name="knn"), spec), small_plan())


def test_report_csv_layout(tmp_path):
    report = run_experiment(small_dataset(), (KnnSpec(name="knn"),), small_plan())
    path = tmp_path / "r.csv"
    report.write_csv(path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.records)
    assert {"classifier", "repeat", "fold", "scope", "f1", "dataset"} <= set(rows[0])


def test_ramp_csv_layout(tmp_path):
    report = run_experiment(small_dataset(), (KnnSpec(name="knn"),), small_plan())
    path = tmp_path / "ramp_curves.csv"
    evaluation.write_ramp_csv({3: report}, path)
    header, *rows = path.read_text().splitlines()
    assert header == "step,classifier,scope,metric,mean,std"
    assert len(rows) == 3 * len(evaluation.METRIC_FIELDS)  # classes 0, 1 and macro
    summary = report.summary()
    for row in rows:
        step, classifier, scope, metric, mean, std = row.split(",")
        assert step == "3"
        assert mean == repr(summary[classifier][scope][metric]["mean"])


def test_report_json_summary(tmp_path):
    report = run_experiment(small_dataset(), (KnnSpec(name="knn"),), small_plan())
    path = tmp_path / "r.json"
    report.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["dataset"] == report.dataset
    text = path.read_text()
    canonical = json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=True)
    assert text.rstrip("\n") == canonical


def test_summary_means_are_the_report_means():
    """Ten values per cell: a pairwise ``np.mean`` would differ from the
    left-to-right ``mean_metric`` in the last bits of some cells."""
    roster = (KnnSpec(name="knn"), KnnSpec(name="wknn", weighted=True))
    report = run_experiment(load_bundled("iris"), roster, FoldPlan(folds=5, repeats=2))
    got, want = [], []
    for classifier, scopes in report.summary().items():
        for scope, cells in scopes.items():
            for metric, cell in cells.items():
                got.append(cell["mean"])
                want.append(report.mean_metric(classifier, scope, metric))
    assert len(got) == 72
    assert np.array_equal(got, want, equal_nan=True)


def test_experiment_is_deterministic():
    a = run_experiment(small_dataset(), default_classifiers(), small_plan())
    b = run_experiment(small_dataset(), default_classifiers(), small_plan())
    assert [(r.classifier, r.repeat, r.fold, r.scope, r.f1) for r in a.records] == [
        (r.classifier, r.repeat, r.fold, r.scope, r.f1) for r in b.records
    ]
