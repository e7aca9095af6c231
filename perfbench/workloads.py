"""The benchmark's workloads: inputs from a seed, one timed call, output checks.

Every workload drives a public entry point of the library
(``run_experiment`` or ``tdabc.cli.main``), looked up through its module at
call time so that the tracer's wrappers are seen.  ``run`` is the timed
part; ``check`` validates what ``run`` returned and is not timed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tdabc.cli as cli
import tdabc.datasets as datasets
import tdabc.evaluation as evaluation
from tdabc.baselines import KnnConfig
from tdabc.classifier import AssociationTable
from tdabc.evaluation import FoldPlan, TdabcSpec, default_classifiers
from tdabc.rips import RipsConfig
from tdabc.selection import SelectionPolicy

PROB_TOLERANCE = 1e-9
# Report values recomputed here from raw predictions must agree this closely.
F1_TOLERANCE = 1e-12


@dataclass
class Checked:
    """What one checked iteration contributes to the run's result."""

    attempted: int
    failed: int
    problems: list[str]
    digest: str
    f1_macro: float
    f1_minority: float


@dataclass
class Call:
    """One captured classifier call: who ran, on which split, what it said."""

    classifier: str
    table: AssociationTable
    predictions: list


# -- checks shared by the workloads ------------------------------------------


def check_predictions(
    where: str,
    test_vertices: frozenset[int],
    n_classes: int,
    rows: list[tuple[int, int, str, tuple[float, ...]]],
) -> list[str]:
    """Problems with one split's (vertex, label, provenance, probability) rows."""
    problems = []
    seen = Counter(v for v, *_ in rows)
    repeated = sorted(v for v, k in seen.items() if k > 1)
    if repeated:
        problems.append(f"{where}: vertices predicted more than once: {repeated[:5]}")
    missing = sorted(set(test_vertices) - set(seen))
    if missing:
        problems.append(f"{where}: test vertices without a prediction: {missing[:5]}")
    extra = sorted(set(seen) - set(test_vertices))
    if extra:
        problems.append(f"{where}: predictions for non-test vertices: {extra[:5]}")
    for vertex, label, provenance, probability in rows:
        if not 0 <= label < n_classes:
            problems.append(f"{where}: vertex {vertex} label {label} out of range")
        if not provenance:
            problems.append(f"{where}: vertex {vertex} has no provenance")
        if len(probability) != n_classes:
            problems.append(f"{where}: vertex {vertex} has {len(probability)} probabilities")
        elif not all(math.isfinite(p) and p >= 0.0 for p in probability):
            problems.append(f"{where}: vertex {vertex} probabilities not finite and >= 0")
        elif abs(math.fsum(probability) - 1.0) > PROB_TOLERANCE:
            problems.append(f"{where}: vertex {vertex} probabilities sum to "
                            f"{math.fsum(probability)!r}")
    return problems


def class_f1(truth: list[int], predicted: list[int], c: int) -> float:
    """F1 of class ``c`` against the rest; 0 when precision and recall are 0."""
    tp = sum(1 for t, p in zip(truth, predicted) if t == c and p == c)
    fp = sum(1 for t, p in zip(truth, predicted) if t != c and p == c)
    fn = sum(1 for t, p in zip(truth, predicted) if t == c and p != c)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def minority_class(training_labels, n_classes: int) -> int:
    """Smallest training class; the lowest index wins ties."""
    counts = Counter(training_labels)
    return min(range(n_classes), key=lambda c: (counts[c], c))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return "sha256:" + h.hexdigest()


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# -- cross-validation workloads ----------------------------------------------


class Capture:
    """Records every classifier call ``run_experiment`` makes.

    Wraps ``tdabc.evaluation.classify_all`` and
    ``tdabc.evaluation.knn_predict_all`` while installed; the predictions are
    otherwise reduced to metric records inside the report and cannot be
    checked.
    """

    TARGETS = ("classify_all", "knn_predict_all")

    def __init__(self, roster) -> None:
        self.calls: list[Call] = []
        self._names = {}
        for spec in roster:
            if isinstance(spec, TdabcSpec):
                self._names[(spec.selector, spec.epsilon_mode, spec.recovery)] = spec.name
            else:
                self._names[(spec.k, spec.weighted)] = spec.name

    @contextlib.contextmanager
    def installed(self):
        saved = {attr: getattr(evaluation, attr) for attr in self.TARGETS}
        try:
            for attr, fn in saved.items():
                setattr(evaluation, attr, self._wrap(fn))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(evaluation, attr, fn)

    def _wrap(self, fn):
        signature = inspect.signature(fn)

        def captured(*args, **kwargs):
            predictions = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            policy = bound.get("policy")
            if isinstance(policy, SelectionPolicy):
                key = (policy.selector, policy.epsilon_mode, policy.recovery)
            else:
                config: KnnConfig = bound["config"]
                key = (config.k, config.weighted)
            self.calls.append(Call(self._names.get(key, repr(key)), bound["table"], predictions))
            return predictions

        return captured

    def take(self) -> list[Call]:
        calls, self.calls = self.calls, []
        return calls


@dataclass
class Experiment:
    label: str
    data: datasets.LabeledDataset
    plan: FoldPlan
    rips: RipsConfig


@dataclass
class CvOutcome:
    reports: list = field(default_factory=list)
    calls: list = field(default_factory=list)  # one list of Calls per experiment


class CrossValidation:
    """``run_experiment`` over one or more datasets with the default roster."""

    def __init__(self, experiments: list[Experiment]) -> None:
        self.experiments = experiments
        self.roster = default_classifiers()
        self.capture = Capture(self.roster)

    def run(self) -> CvOutcome:
        out = CvOutcome()
        with self.capture.installed():
            for ex in self.experiments:
                out.reports.append(
                    evaluation.run_experiment(ex.data, self.roster, ex.plan, ex.rips))
                out.calls.append(self.capture.take())
        return out

    def check(self, out: CvOutcome) -> Checked:
        problems: list[str] = []
        lines: list[str] = []
        attempted = failed = 0
        macro, minority = [], []
        for ex, report, calls in zip(self.experiments, out.reports, out.calls):
            splits = ex.plan.folds * ex.plan.repeats
            attempted += splits * len(self.roster)
            failed += len(report.failures)
            problems += self._check_experiment(ex, report, calls, lines)
            macro.append(report.mean_metric("tdabc-m", "macro", "f1"))
            minority.append(report.minority_mean("tdabc-m", "f1"))
        return Checked(attempted, failed, problems, digest(lines), mean(macro), mean(minority))

    def _check_experiment(self, ex: Experiment, report, calls: list[Call], lines) -> list[str]:
        problems = []
        n = len(ex.data)
        by_name: dict[str, list[Call]] = {}
        for call in calls:
            by_name.setdefault(call.classifier, []).append(call)
        for spec in self.roster:
            mine = by_name.pop(spec.name, [])
            expected = (ex.plan.folds * ex.plan.repeats
                        - sum(1 for f in report.failures if f.classifier == spec.name))
            where = f"{ex.label}/{spec.name}"
            if len(mine) != expected:
                problems.append(f"{where}: {len(mine)} classifier calls, expected {expected}")
            tested: Counter = Counter()
            for call in mine:
                rows = [(p.vertex, p.label, p.provenance, p.probability) for p in call.predictions]
                problems += check_predictions(where, call.table.test_vertices,
                                              call.table.n_classes, rows)
                tested.update(call.table.test_vertices)
                lines += [f"{ex.label},{spec.name},{v},{lab},{prov}" for v, lab, prov, _ in rows]
            if not report.failures and tested != Counter({v: ex.plan.repeats for v in range(n)}):
                problems.append(f"{where}: test sets do not cover every vertex once per repeat")
        if by_name:
            problems.append(f"{ex.label}: calls from classifiers not in the roster: {sorted(by_name)}")
        problems += self._check_f1(ex, report, calls)
        return problems

    @staticmethod
    def _check_f1(ex: Experiment, report, calls: list[Call]) -> list[str]:
        """The report's tdabc-m F1 means must follow from the captured predictions."""
        mine = [c for c in calls if c.classifier == "tdabc-m"]
        if not mine or report.failures:
            return []
        labels = ex.data.labels
        macro, minority = [], []
        for call in mine:
            truth = [int(labels[p.vertex]) for p in call.predictions]
            predicted = [p.label for p in call.predictions]
            n_classes = call.table.n_classes
            per_class = [class_f1(truth, predicted, c) for c in range(n_classes)]
            macro.append(mean(per_class))
            minority.append(per_class[minority_class(call.table.training.values(), n_classes)])
        problems = []
        for what, ours, theirs in (
            ("macro", mean(macro), report.mean_metric("tdabc-m", "macro", "f1")),
            ("minority", mean(minority), report.minority_mean("tdabc-m", "f1")),
        ):
            if not abs(ours - theirs) <= F1_TOLERANCE:
                problems.append(f"{ex.label}: report {what} F1 {theirs!r} but predictions "
                                f"give {ours!r}")
        return problems


def iris_cv(seed: int, workdir: Path) -> CrossValidation:
    data = datasets.load_bundled("iris")
    plan = FoldPlan(folds=10, repeats=1, seed=seed)
    return CrossValidation([Experiment("iris", data, plan, RipsConfig(max_dim=3, budget=150_000))])


def ramp_sweep(seed: int, workdir: Path) -> CrossValidation:
    rips = RipsConfig(max_dim=2, max_edge=0.3, budget=400_000)
    plan = FoldPlan(folds=5, repeats=3, seed=seed)
    return CrossValidation([
        Experiment(f"ramp{step:02d}", datasets.make_imbalance_ramp(step, seed=seed), plan, rips)
        for step in range(12, 17)
    ])


# -- one-shot CLI workload ---------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    out: Path


class ShellsClassify:
    """``tdabc classify`` on the 326-point shells, written to a CSV first."""

    TEST_FRACTION = 0.2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.data = datasets.make_sphere(sizes=(250, 50, 12, 8, 6), seed=seed)
        self.csv = workdir / "shells.csv"
        datasets.save_csv(self.data, self.csv)
        self.out = workdir / "classify"

    def argv(self) -> list[str]:
        return ["classify", "--dataset", str(self.csv), "--max-dim", "2",
                "--budget", "400000", "--selector", "max",
                "--test-fraction", str(self.TEST_FRACTION), "--seed", str(self.seed),
                "--out", str(self.out)]

    def run(self) -> CliOutcome:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv())
        return CliOutcome(code, self.out)

    def check(self, out: CliOutcome) -> Checked:
        if out.code != 0:
            return Checked(1, 1, [f"tdabc classify exited {out.code}"], "", math.nan, math.nan)
        problems, rows = self.parse(out.out / "shells.predictions.csv")
        problems += self.check_rows(rows)
        truth = [int(self.data.labels[v]) for v, *_ in rows]
        predicted = [lab for _, lab, *_ in rows]
        n_classes = self.data.n_classes
        per_class = [class_f1(truth, predicted, c) for c in range(n_classes)]
        tested = {v for v, *_ in rows}
        training = [int(c) for v, c in enumerate(self.data.labels) if v not in tested]
        summary = (out.out / "shells.predictions.json").read_text()
        problems += self.check_summary(summary, rows, truth, predicted)
        return Checked(
            1, 0, problems,
            digest(f"{v},{lab},{prov}" for v, lab, prov, _ in rows),
            mean(per_class), per_class[minority_class(training, n_classes)],
        )

    def parse(self, path: Path) -> tuple[list[str], list]:
        """Prediction rows of the CLI's CSV, labels mapped back to indices."""
        names = self.data.class_names
        index = {name: i for i, name in enumerate(names)}
        problems, rows = [], []
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            want = ["vertex", "predicted", "provenance"] + [f"p_{n}" for n in names]
            if header != want:
                return [f"predictions header {header}, expected {want}"], []
            for line in reader:
                vertex, predicted, provenance, *probs = line
                if predicted not in index:
                    problems.append(f"vertex {vertex} predicted unknown class {predicted!r}")
                rows.append((int(vertex), index.get(predicted, -1), provenance,
                             tuple(float(p) for p in probs)))
        return problems, rows

    def check_rows(self, rows) -> list[str]:
        """Every test vertex once: per class, round(fraction * size) of them, at least 1."""
        labels = self.data.labels
        n_classes = self.data.n_classes
        want = {c: max(1, int(round(self.TEST_FRACTION * int((labels == c).sum()))))
                for c in range(n_classes)}
        got = Counter(int(labels[v]) for v, *_ in rows if 0 <= v < len(labels))
        problems = check_predictions("shells", frozenset(v for v, *_ in rows), n_classes, rows)
        if any(not 0 <= v < len(labels) for v, *_ in rows):
            problems.append("shells: predictions for vertices outside the dataset")
        if got != Counter(want):
            problems.append(f"shells: test vertices per class {dict(got)}, expected {want}")
        return problems

    @staticmethod
    def check_summary(summary: str, rows, truth, predicted) -> list[str]:
        payload = json.loads(summary)
        accuracy = sum(1 for t, p in zip(truth, predicted) if t == p) / len(rows) if rows else 0.0
        problems = []
        if payload.get("n_test") != len(rows):
            problems.append(f"shells: summary n_test {payload.get('n_test')} != {len(rows)} rows")
        if not abs(payload.get("accuracy", math.nan) - accuracy) <= F1_TOLERANCE:
            problems.append(f"shells: summary accuracy {payload.get('accuracy')} != {accuracy}")
        return problems


WORKLOADS = {
    "iris-cv": iris_cv,
    "shells-classify": ShellsClassify,
    "ramp-sweep": ramp_sweep,
}
