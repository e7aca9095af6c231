"""Repeated stratified cross-validation of the classifier against baselines.

The point cloud never changes across folds, so the filtration and its
persistence diagram are computed once per experiment and only the label
assignment is re-dealt.  Each classifier call returns one record array of
predictions, and a fold's metrics read its ``vertex``, ``label`` and
``probability`` columns.  Metrics are computed per fold and averaged, with
the minority class (smallest training class of the fold) tracked
separately.

A fold's rates come from one confusion matrix, and each class's two AUCs
from one stable descending sort of its probabilities (``ranking_aucs``):
ROC and precision-recall curves are both read off one ranking's cumulative
true and false positive counts (Davis & Goadrich, ICML 2006).

``fold_metrics`` follows a report-oriented convention: the false positive
rate is FP / (TP + FP), the complement of precision.  The textbook
FP / (FP + TN) is recorded alongside under ``fpr_conventional``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import KnnConfig, knn_predict_all
from .classifier import AssociationTable, classify_all
from .datasets import LabeledDataset
from .errors import DegenerateClass, InvalidConfig, NoClassifiers, TdabcError
from .persistence import boundary_reduce
from .rips import RipsConfig, build_rips, pairwise_distances
from .selection import SelectionPolicy


@dataclass(frozen=True)
class FoldPlan:
    folds: int = 10
    repeats: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise InvalidConfig("need at least two folds")
        if self.repeats < 1:
            raise InvalidConfig("need at least one repeat")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")


def stratified_splits(
    labels: np.ndarray, plan: FoldPlan
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(repeat, fold, train indices, test indices) tuples, test sets disjoint."""
    labels = np.asarray(labels)
    n = len(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() < 2:
        small = classes[np.argmin(counts)]
        raise DegenerateClass(f"class {small} has {counts.min()} member(s)")
    if counts.max() < plan.folds:
        # Each class is dealt from fold 0 on, so the last folds would be empty.
        raise InvalidConfig(
            f"folds is {plan.folds} but the largest class has {counts.max()} members, "
            "so some test folds would be empty"
        )
    if counts.min() < plan.folds:
        warnings.warn(
            f"smallest class has {counts.min()} members for {plan.folds} folds; "
            "stratification is best-effort",
            stacklevel=2,
        )
    out = []
    for repeat in range(plan.repeats):
        rng = np.random.default_rng([plan.seed, repeat])
        fold_of = np.empty(n, dtype=np.int64)
        for c in classes:
            members = np.flatnonzero(labels == c)
            rng.shuffle(members)
            fold_of[members] = np.arange(members.size) % plan.folds
        for fold in range(plan.folds):
            out.append((repeat, fold, np.flatnonzero(fold_of != fold),
                        np.flatnonzero(fold_of == fold)))
    return out


def ranking_aucs(scores: np.ndarray, relevant: np.ndarray) -> tuple[float, float]:
    """ROC AUC and average precision of ranking ``scores`` for the ``relevant``
    mask, both read from one stable descending sort.  Both are nan without a
    relevant score, and the ROC AUC is nan without an irrelevant one."""
    scores = np.asarray(scores)
    relevant = np.asarray(relevant, dtype=bool)
    n_pos = int(relevant.sum())
    n_neg = relevant.size - n_pos
    if n_pos == 0:
        return math.nan, math.nan
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    # Each group of tied scores is one threshold; tp and fp count the relevant
    # and irrelevant scores at or above the end of each group.
    last_of_group = np.append(np.flatnonzero(np.diff(scores)), len(scores) - 1)
    tp = np.cumsum(relevant[order])[last_of_group]
    precision = tp / (last_of_group + 1.0)
    recall = tp / n_pos
    average_precision = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
    if n_neg == 0:
        return math.nan, average_precision
    # Mann-Whitney U, doubled to stay in integers: each of a group's p_g
    # relevant scores wins over the irrelevant ones below the group and ties
    # with its n_g irrelevant ones.
    fp = last_of_group + 1 - tp
    p_g, n_g = np.diff(tp, prepend=0), np.diff(fp, prepend=0)
    won_twice = int(np.sum(p_g * (2 * (n_neg - fp) + n_g)))
    return won_twice / 2 / (n_pos * n_neg), average_precision


def fold_metrics(
    truth: np.ndarray, predicted: np.ndarray, probabilities: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """A fold's one-vs-rest metrics: an ``(n_classes, 9)`` table, columns in
    ``METRIC_FIELDS`` order, and a per-class mask of the rows with an empty
    denominator.  An empty denominator gives a rate of 0.

    Every count comes from one confusion matrix (rows true, columns
    predicted), and each class's two AUCs from one ``ranking_aucs`` call on
    its probability column.  Each rate is an ``int64`` quotient, which numpy
    rounds as Python's ``int / int`` does for these counts."""
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    confusion = np.bincount(truth * n_classes + predicted, minlength=n_classes * n_classes)
    confusion = confusion.reshape(n_classes, n_classes)
    tp = np.diagonal(confusion)
    called = confusion.sum(axis=0)
    actual = confusion.sum(axis=1)
    fp = called - tp
    tn = len(truth) - actual - fp

    def rate(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den, out=np.zeros(n_classes), where=den > 0)

    precision = rate(tp, called)
    recall = rate(tp, actual)
    tnr = rate(tn, tn + fp)
    f1 = rate(2.0 * precision * recall, precision + recall)
    table = np.column_stack([
        precision,
        recall,
        f1,
        tnr,
        rate(fp, called),
        rate(fp, fp + tn),
        np.sqrt(tnr * recall),
        [ranking_aucs(probabilities[:, c], truth == c) for c in range(n_classes)],
    ])
    degenerate = (called == 0) | (actual == 0) | (tn + fp == 0)
    return table, degenerate


# -- classifier roster ------------------------------------------------------


@dataclass(frozen=True)
class TdabcSpec:
    name: str
    selector: str = "max"
    epsilon_mode: str = "death"
    recovery: str = "sublevel"


@dataclass(frozen=True)
class KnnSpec:
    name: str
    k: int = 5
    weighted: bool = False


ClassifierSpec = TdabcSpec | KnnSpec


def default_classifiers() -> tuple[ClassifierSpec, ...]:
    return (
        TdabcSpec("tdabc-m", selector="max"),
        TdabcSpec("tdabc-r", selector="rand"),
        TdabcSpec("tdabc-a", selector="avg"),
        KnnSpec("knn"),
        KnnSpec("wknn", weighted=True),
    )


# -- records and reports -----------------------------------------------------

METRIC_FIELDS = (
    "precision",
    "recall",
    "f1",
    "tnr",
    "fpr",
    "fpr_conventional",
    "gmean",
    "roc_auc",
    "pr_auc",
)


@dataclass(frozen=True)
class MetricRecord:
    classifier: str
    repeat: int
    fold: int
    scope: str  # class name, or "macro"
    minority: bool
    precision: float
    recall: float
    f1: float
    tnr: float
    fpr: float
    fpr_conventional: float
    gmean: float
    roc_auc: float
    pr_auc: float
    degenerate: bool


@dataclass(frozen=True)
class FoldFailure:
    classifier: str
    repeat: int
    fold: int
    error: str


def _finite_mean(values) -> float:
    """Mean of the values that are not nan, added left to right from 0.0; nan
    if none.  The built-in ``sum`` compensates its float sums from Python 3.12
    on, so it would make the reports depend on the interpreter."""
    total, count = 0.0, 0
    for v in values:
        if not math.isnan(v):
            total += v
            count += 1
    return total / count if count else math.nan


@dataclass
class EvaluationReport:
    dataset: str
    classes: tuple[str, ...]
    records: list[MetricRecord] = field(default_factory=list)
    failures: list[FoldFailure] = field(default_factory=list)

    def summary(self) -> dict:
        grouped: dict[tuple[str, str], dict[str, list[float]]] = {}
        for r in self.records:
            cell = grouped.setdefault((r.classifier, r.scope), {m: [] for m in METRIC_FIELDS})
            for m in METRIC_FIELDS:
                cell[m].append(getattr(r, m))
        out: dict = {}
        for (classifier, scope), cell in sorted(grouped.items()):
            slot = out.setdefault(classifier, {}).setdefault(scope, {})
            for m, values in cell.items():
                arr = np.asarray(values, dtype=float)
                finite = arr[~np.isnan(arr)]
                std = float(finite.std()) if finite.size else math.nan
                slot[m] = {"mean": _finite_mean(values), "std": std}
        return out

    def mean_metric(self, classifier: str, scope: str, metric: str) -> float:
        return _finite_mean(
            getattr(r, metric)
            for r in self.records
            if r.classifier == classifier and r.scope == scope
        )

    def minority_mean(self, classifier: str, metric: str) -> float:
        return _finite_mean(
            getattr(r, metric)
            for r in self.records
            if r.classifier == classifier and r.minority
        )

    def write_csv(self, path: str | Path) -> None:
        header = ["dataset", "classifier", "repeat", "fold", "scope", "minority"]
        header += list(METRIC_FIELDS) + ["degenerate"]
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for r in self.records:
                cells = [self.dataset, r.classifier, str(r.repeat), str(r.fold), r.scope,
                         "true" if r.minority else "false"]
                cells += [repr(getattr(r, m)) for m in METRIC_FIELDS]
                cells.append("true" if r.degenerate else "false")
                writer.writerow(cells)

    def write_json(self, path: str | Path) -> None:
        payload = {
            "dataset": self.dataset,
            "classes": list(self.classes),
            "summary": self.summary(),
            "failures": [
                {"classifier": f.classifier, "repeat": f.repeat, "fold": f.fold, "error": f.error}
                for f in self.failures
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fold_seed(base: int, repeat: int, fold: int) -> int:
    return int(np.random.SeedSequence([base, repeat, fold]).generate_state(1)[0])


def run_experiment(
    dataset: LabeledDataset,
    classifiers: Sequence[ClassifierSpec],
    plan: FoldPlan,
    rips: RipsConfig | None = None,
) -> EvaluationReport:
    """Cross-validate every classifier on ``dataset`` and collect metrics."""
    if not classifiers:
        raise NoClassifiers("classifier roster is empty")
    # Built before any fold: an invalid setting is the caller's error.
    configs = [
        SelectionPolicy(spec.selector, spec.epsilon_mode, spec.recovery)
        if isinstance(spec, TdabcSpec) else KnnConfig(spec.k, spec.weighted)
        for spec in classifiers
    ]
    if rips is None:
        rips = RipsConfig()
    labels = dataset.labels
    n_classes = dataset.n_classes
    report = EvaluationReport(dataset=dataset.name, classes=dataset.class_names)

    dist = pairwise_distances(dataset.points, rips.metric)
    complex_ = None
    diagram = None
    if any(isinstance(spec, TdabcSpec) for spec in classifiers):
        complex_ = build_rips(dist, rips)
        diagram = boundary_reduce(complex_)

    for repeat, fold, train_idx, test_idx in stratified_splits(labels, plan):
        table = AssociationTable(
            training={int(i): int(labels[i]) for i in train_idx},
            test_vertices=frozenset(int(i) for i in test_idx),
            n_classes=n_classes,
        )
        train_counts = np.bincount(labels[train_idx], minlength=n_classes)
        minority = int(np.argmin(train_counts))
        seed = _fold_seed(plan.seed, repeat, fold)
        for spec, config in zip(classifiers, configs):
            try:
                if isinstance(config, SelectionPolicy):
                    policy = replace(config, rng_seed=seed)
                    preds = classify_all(complex_, diagram, table, policy, dist)
                else:
                    preds = knn_predict_all(dist, table, config, seed=seed)
            except TdabcError as exc:  # a fold the method cannot label is data
                report.failures.append(
                    FoldFailure(spec.name, repeat, fold, f"{type(exc).__name__}: {exc}")
                )
                continue
            report.records.extend(
                _fold_records(spec.name, repeat, fold, preds, labels, n_classes,
                              dataset.class_names, minority)
            )
    return report


def _fold_records(
    name: str,
    repeat: int,
    fold: int,
    preds: np.recarray,
    labels: np.ndarray,
    n_classes: int,
    class_names: tuple[str, ...],
    minority: int,
) -> list[MetricRecord]:
    table, degenerate = fold_metrics(labels[preds.vertex], preds.label,
                                     preds.probability, n_classes)
    # ``tolist`` gives Python floats, whose repr the reports print.
    records = [
        MetricRecord(name, repeat, fold, class_names[c], c == minority, *row,
                     bool(degenerate[c]))
        for c, row in enumerate(table.tolist())
    ]
    macro = [_finite_mean(column) for column in table.T.tolist()]
    records.append(
        MetricRecord(name, repeat, fold, "macro", False, *macro, bool(degenerate.any()))
    )
    return records


def write_ramp_csv(reports: dict[int, EvaluationReport], path: str | Path) -> None:
    """Plot-ready long format: one row per (step, classifier, scope, metric)."""
    lines = ["step,classifier,scope,metric,mean,std"]
    for step in sorted(reports):
        report = reports[step]
        summary = report.summary()
        for classifier in sorted(summary):
            for scope in sorted(summary[classifier]):
                for metric in METRIC_FIELDS:
                    cell = summary[classifier][scope][metric]
                    lines.append(
                        f"{step},{classifier},{scope},{metric},"
                        f"{cell['mean']!r},{cell['std']!r}"
                    )
    Path(path).write_text("\n".join(lines) + "\n")
