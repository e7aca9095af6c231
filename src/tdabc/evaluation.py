"""Repeated stratified cross-validation of the classifier against baselines.

The point cloud never changes across folds, so the filtration and its
persistence diagram are computed once per experiment and only the label
assignment is re-dealt.  Metrics are computed per fold and averaged, with
the minority class (smallest training class of the fold) tracked
separately.

``binary_rates`` follows a report-oriented convention: the false positive
rate is FP / (TP + FP), the complement of precision.  The textbook
FP / (FP + TN) is recorded alongside under ``fpr_conventional``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import KnnConfig, knn_predict_all
from .classifier import AssociationTable, Prediction, classify_all
from .datasets import LabeledDataset
from .errors import DegenerateClass, InvalidConfig, NoClassifiers, TdabcError, UndefinedAUC
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
    if counts.min() < plan.folds:
        warnings.warn(
            f"smallest class has {counts.min()} members for {plan.folds} folds; "
            "stratification is best-effort",
            stacklevel=2,
        )
    out = []
    for repeat in range(plan.repeats):
        rng = np.random.default_rng([plan.seed, repeat])
        buckets: list[list[int]] = [[] for _ in range(plan.folds)]
        for c in classes:
            members = np.flatnonzero(labels == c)
            rng.shuffle(members)
            for pos, idx in enumerate(members):
                buckets[pos % plan.folds].append(int(idx))
        for fold, bucket in enumerate(buckets):
            test = np.array(sorted(bucket), dtype=int)
            mask = np.ones(n, dtype=bool)
            mask[test] = False
            out.append((repeat, fold, np.flatnonzero(mask), test))
    return out


@dataclass(frozen=True)
class BinaryRates:
    tnr: float
    fpr: float
    recall: float
    precision: float
    fpr_conventional: float
    degenerate: tuple[str, ...] = ()


def binary_rates(
    truth: Sequence[int], predicted: Sequence[int], positive: int
) -> BinaryRates:
    """One-vs-rest confusion rates; empty denominators give 0 and a flag."""
    tp = fp = tn = fn = 0
    for t, p in zip(truth, predicted):
        if p == positive:
            if t == positive:
                tp += 1
            else:
                fp += 1
        else:
            if t == positive:
                fn += 1
            else:
                tn += 1
    flags = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    tnr = ratio(tn, tn + fp, "tnr")
    fpr = ratio(fp, tp + fp, "fpr")
    recall = ratio(tp, tp + fn, "recall")
    precision = ratio(tp, tp + fp, "precision")
    fpr_conv = ratio(fp, fp + tn, "fpr_conventional")
    return BinaryRates(tnr, fpr, recall, precision, fpr_conv, tuple(flags))


def f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def gmean(tnr: float, recall: float) -> float:
    return math.sqrt(tnr * recall)


def _binary_auc(scores: np.ndarray, positive_mask: np.ndarray) -> float:
    pos = scores[positive_mask][:, None]
    neg = scores[~positive_mask][None, :]
    if pos.size == 0 or neg.size == 0:
        return math.nan
    # Mann-Whitney U: positive-negative pairs won, ties counting one half.
    u = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(u) / (pos.size * neg.size)


def roc_auc_per_class(probabilities: np.ndarray, truth: np.ndarray) -> list[float]:
    """One-vs-rest AUC per class; nan when a class lacks positives or negatives."""
    truth = np.asarray(truth)
    return [
        _binary_auc(probabilities[:, c], truth == c)
        for c in range(probabilities.shape[1])
    ]


def roc_auc_ovr_macro(probabilities: np.ndarray, truth: np.ndarray) -> float:
    per_class = roc_auc_per_class(probabilities, truth)
    usable = [v for v in per_class if not math.isnan(v)]
    if not usable:
        raise UndefinedAUC("every class lacks positives or negatives")
    return sum(usable) / len(usable)


def pr_auc(probabilities: np.ndarray, truth: np.ndarray, positive: int) -> float:
    """Average precision of the one-vs-rest ranking for ``positive``."""
    truth = np.asarray(truth)
    scores = np.asarray(probabilities)[:, positive]
    relevant = (truth == positive).astype(float)
    n_pos = relevant.sum()
    if n_pos == 0:
        return math.nan
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    relevant = relevant[order]
    # Evaluate precision/recall once per distinct threshold.
    last_of_group = np.append(np.flatnonzero(np.diff(scores)), len(scores) - 1)
    tp = np.cumsum(relevant)[last_of_group]
    precision = tp / (last_of_group + 1.0)
    recall = tp / n_pos
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))


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
                if len(finite) == 0:
                    slot[m] = {"mean": math.nan, "std": math.nan}
                else:
                    slot[m] = {"mean": float(finite.mean()), "std": float(finite.std())}
        return out

    def mean_metric(self, classifier: str, scope: str, metric: str) -> float:
        values = [
            getattr(r, metric)
            for r in self.records
            if r.classifier == classifier and r.scope == scope
        ]
        finite = [v for v in values if not math.isnan(v)]
        if not finite:
            return math.nan
        return sum(finite) / len(finite)

    def minority_mean(self, classifier: str, metric: str) -> float:
        values = [
            getattr(r, metric)
            for r in self.records
            if r.classifier == classifier and r.minority
        ]
        finite = [v for v in values if not math.isnan(v)]
        if not finite:
            return math.nan
        return sum(finite) / len(finite)

    def write_csv(self, path: str | Path) -> None:
        header = ["dataset", "classifier", "repeat", "fold", "scope", "minority"]
        header += list(METRIC_FIELDS) + ["degenerate"]
        lines = [",".join(header)]
        for r in self.records:
            cells = [self.dataset, r.classifier, str(r.repeat), str(r.fold), r.scope,
                     "true" if r.minority else "false"]
            cells += [repr(getattr(r, m)) for m in METRIC_FIELDS]
            cells.append("true" if r.degenerate else "false")
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n")

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
    preds: list[Prediction],
    labels: np.ndarray,
    n_classes: int,
    class_names: tuple[str, ...],
    minority: int,
) -> list[MetricRecord]:
    truth = np.array([labels[p.vertex] for p in preds])
    predicted = np.array([p.label for p in preds])
    probs = np.array([p.probability for p in preds])
    aucs = roc_auc_per_class(probs, truth)
    records = []
    per_class_values = []
    for c in range(n_classes):
        rates = binary_rates(truth, predicted, c)
        row = {
            "precision": rates.precision,
            "recall": rates.recall,
            "f1": f1(rates.precision, rates.recall),
            "tnr": rates.tnr,
            "fpr": rates.fpr,
            "fpr_conventional": rates.fpr_conventional,
            "gmean": gmean(rates.tnr, rates.recall),
            "roc_auc": aucs[c],
            "pr_auc": pr_auc(probs, truth, c),
        }
        per_class_values.append(row)
        records.append(
            MetricRecord(
                classifier=name, repeat=repeat, fold=fold, scope=class_names[c],
                minority=(c == minority), degenerate=bool(rates.degenerate), **row,
            )
        )
    macro = {}
    for m in METRIC_FIELDS:
        vals = [row[m] for row in per_class_values if not math.isnan(row[m])]
        macro[m] = sum(vals) / len(vals) if vals else math.nan
    records.append(
        MetricRecord(
            classifier=name, repeat=repeat, fold=fold, scope="macro",
            minority=False, degenerate=any(r.degenerate for r in records), **macro,
        )
    )
    return records


def write_ramp_csv(reports: dict[int, EvaluationReport], path: str | Path) -> None:
    """Plot-ready long format: one row per (step, classifier, scope, metric)."""
    lines = ["step,ratio,classifier,scope,metric,mean,std"]
    for step in sorted(reports):
        report = reports[step]
        summary = report.summary()
        for classifier in sorted(summary):
            for scope in sorted(summary[classifier]):
                for metric in METRIC_FIELDS:
                    cell = summary[classifier][scope][metric]
                    lines.append(
                        f"{step},{step},{classifier},{scope},{metric},"
                        f"{cell['mean']!r},{cell['std']!r}"
                    )
    Path(path).write_text("\n".join(lines) + "\n")
