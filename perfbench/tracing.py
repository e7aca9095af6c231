"""Spans around the library's layer boundaries, recorded from outside it.

Each traced function is replaced, for the duration of one traced iteration,
by a wrapper stored under the name its caller looks it up by (for example
``tdabc.evaluation.build_rips`` or ``FilteredComplex.star``).  A span holds
an id, its parent's id, the function name, the per-layer metric its self
time counts toward, and its start and end.  Spans stay in memory until the
process writes them once at exit.

Hooks that count work (simplices, intervals, provenance) run after the
timed iteration has ended, on the results the spans kept, so counting adds
nothing to the measured durations.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import tdabc.classifier as classifier
import tdabc.cli as cli
import tdabc.datasets as datasets
import tdabc.evaluation as evaluation
import tdabc.rips as rips
from tdabc.complexes import FilteredComplex

ITERATION = "bench.iteration"
SETUP = "bench.setup"


def _simplices(counts, args, kwargs, result):
    counts["rips.simplices"] += len(result)


def _intervals(counts, args, kwargs, result):
    counts["persistence.intervals"] += len(result.intervals)
    counts["persistence.zero_length"] += sum(1 for d in result.intervals if d.death == d.birth)


def _candidates(counts, args, kwargs, result):
    counts["persistence.candidates"] += len(result)
    counts["persistence.candidates_mortal"] += sum(1 for d in result if not d.immortal)


def _recovered(counts, args, kwargs, result):
    full = args[0] if args else kwargs["complex_"]
    counts["selection.sub_simplices"] += len(result)
    counts["selection.full_simplices"] += len(full)


def _provenance(counts, args, kwargs, result):
    for p in result:
        counts["classifier.predictions"] += 1
        counts["classifier.prov." + p.provenance] += 1


def _folds(counts, args, kwargs, result):
    counts["evaluation.folds"] += len(result)


def _bytes_written(counts, args, kwargs, result):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        counts["cli.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# (owner, attribute, metric that receives the span's self time, count hook)
TARGETS = (
    (evaluation, "run_experiment", "evaluation.self_s", None),
    (evaluation, "stratified_splits", "evaluation.self_s", _folds),
    (evaluation, "pairwise_distances", "rips.pairwise_distances_s", None),
    (evaluation, "build_rips", "rips.build_s", _simplices),
    (evaluation, "boundary_reduce", "persistence.reduce_s", _intervals),
    (evaluation, "classify_all", "classifier.classify_s", _provenance),
    (evaluation, "knn_predict_all", "baselines.knn_s", None),
    (cli, "main", "cli.self_s", _bytes_written),
    (cli, "pairwise_distances", "rips.pairwise_distances_s", None),
    (cli, "build_rips", "rips.build_s", _simplices),
    (cli, "boundary_reduce", "persistence.reduce_s", _intervals),
    (cli, "classify_all", "classifier.classify_s", _provenance),
    (cli, "knn_predict_all", "baselines.knn_s", None),
    (rips, "auto_max_edge", "rips.auto_max_edge_s", None),
    (classifier, "intervals_above_dim_zero", "persistence.candidates_s", _candidates),
    (classifier, "select", "selection.select_s", None),
    (classifier, "recover", "selection.recover_s", _recovered),
    (classifier, "extend", "classifier.extend_s", None),
    (classifier, "handle_isolated", "classifier.fallback_s", None),
    (classifier, "handle_unlabeled_link", "classifier.fallback_s", None),
    (classifier, "majority_class", "classifier.fallback_s", None),
    (datasets, "load_csv", "datasets.load_s", None),
    (datasets, "load_bundled", "datasets.load_s", None),
    (datasets, "make_sphere", "datasets.load_s", None),
    (datasets, "make_imbalance_ramp", "datasets.load_s", None),
    (datasets, "save_csv", "datasets.load_s", None),
    (FilteredComplex, "order", "complexes.order_s", None),
    (FilteredComplex, "star", "complexes.star_s", None),
    (FilteredComplex, "subcomplex_at", "complexes.subcomplex_s", None),
)

# Per-layer call counts: metric -> the span names whose spans it counts.
CALLS = {
    "complexes.star_calls": ("FilteredComplex.star",),
    "selection.recover_calls": ("tdabc.classifier.recover",),
    "classifier.extend_calls": ("tdabc.classifier.extend",),
    "baselines.knn_calls": ("tdabc.evaluation.knn_predict_all", "tdabc.cli.knn_predict_all"),
}
CLASSIFY = ("tdabc.evaluation.classify_all", "tdabc.cli.classify_all")


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        # [id, parent id, name, metric, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self.counts: Counter = Counter()
        self.iterations = 0

    def _wrap(self, name: str, metric: str, fn, hook):
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, metric, clock(), 0.0]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if hook is not None:
                pending.append((hook, args, kwargs, result))
            return result

        # Lets inspect.signature see the wrapped function's parameters.
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper, and restore on exit."""
        saved = []
        try:
            for owner, attr, metric, hook in TARGETS:
                original = owner.__dict__[attr]
                name = f"{owner.__name__}.{attr}"
                if isinstance(original, property):
                    replacement = property(self._wrap(name, metric, original.fget, hook))
                else:
                    replacement = self._wrap(name, metric, original, hook)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._flush_hooks()

    @contextmanager
    def root(self, name: str):
        """A span with no parent: one set-up or one traced iteration."""
        record = [len(self.spans), None, name, None, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()
            if name == ITERATION:
                self.iterations += 1

    def _flush_hooks(self) -> None:
        for hook, args, kwargs, result in self._pending:
            hook(self.counts, args, kwargs, result)
        self._pending.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[tuple[list, float]]:
        """(span, self time) pairs: duration minus the children's durations."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _name, _metric, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(s, (s[5] - s[4]) - child_time[s[0]]) for s in self.spans]

    def roots(self) -> dict[int, str]:
        """Root span name for every span id."""
        out: dict[int, str] = {}
        for sid, parent, name, *_ in self.spans:
            out[sid] = name if parent is None else out[parent]
        return out

    def layer_metrics(self, untraced_run_s: float) -> dict[str, float]:
        """Per-layer metrics, per traced iteration, plus the set-up's dataset time."""
        n = max(self.iterations, 1)
        roots = self.roots()
        seconds: Counter = Counter()
        setup_load = 0.0
        span_calls: Counter = Counter()
        classify_ms: list[float] = []
        iteration_s: list[float] = []
        in_iterations = 0
        for span, own in self.self_times():
            sid, parent, name, metric, start, end = span
            if roots[sid] == SETUP:
                if metric == "datasets.load_s":
                    setup_load += own
                continue
            in_iterations += 1
            if parent is None:
                iteration_s.append(end - start)
                seconds["trace.unattributed_s"] += own
                continue
            seconds[metric] += own
            span_calls[name] += 1
            if name in CLASSIFY:
                classify_ms.append((end - start) * 1e3)
        c = self.counts
        run_s = sum(iteration_s) / n
        out = {m: seconds[m] / n for m in LAYER_SECONDS}
        out.update({m: sum(span_calls[s] for s in names) / n for m, names in CALLS.items()})
        out.update({
            "datasets.setup_s": setup_load,
            "rips.simplices": c["rips.simplices"] / n,
            "persistence.intervals": c["persistence.intervals"] / n,
            "persistence.zero_length_share": _share(c["persistence.zero_length"],
                                                    c["persistence.intervals"]),
            "persistence.candidates": c["persistence.candidates"] / n,
            "persistence.candidates_mortal_share": _share(c["persistence.candidates_mortal"],
                                                          c["persistence.candidates"]),
            "selection.sub_share": _share(c["selection.sub_simplices"],
                                          c["selection.full_simplices"]),
            "classifier.classify_calls": len(classify_ms) / n,
            "classifier.classify_p50_ms": _quantile(classify_ms, 0.5),
            "classifier.classify_p90_ms": _quantile(classify_ms, 0.9),
            "classifier.link_share": _share(c["classifier.prov.link"], c["classifier.predictions"]),
            "classifier.prov.isolated": c["classifier.prov.isolated"] / n,
            "classifier.prov.unlabeled_link": c["classifier.prov.unlabeled_link"] / n,
            "classifier.prov.global_fallback": c["classifier.prov.global_fallback"] / n,
            "evaluation.folds": c["evaluation.folds"] / n,
            "cli.bytes_written": c["cli.bytes_written"] / n,
            "trace.run_s": run_s,
            "trace.untraced_run_s": untraced_run_s,
            "trace.overhead_s": run_s - untraced_run_s,
            "trace.spans": in_iterations / n,
        })
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines, relative to the first span's start."""
        base = self.spans[0][4] if self.spans else 0.0
        with path.open("w") as fh:
            for sid, parent, name, metric, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "metric": metric, "start": start - base,
                                     "end": end - base}) + "\n")


# Per-layer time metrics; their sum per iteration is the traced run_s.
LAYER_SECONDS = (
    "rips.pairwise_distances_s",
    "rips.auto_max_edge_s",
    "rips.build_s",
    "complexes.order_s",
    "complexes.star_s",
    "complexes.subcomplex_s",
    "persistence.reduce_s",
    "persistence.candidates_s",
    "selection.select_s",
    "selection.recover_s",
    "classifier.classify_s",
    "classifier.extend_s",
    "classifier.fallback_s",
    "baselines.knn_s",
    "evaluation.self_s",
    "datasets.load_s",
    "cli.self_s",
    "trace.unattributed_s",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
