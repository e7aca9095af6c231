"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench

The two full runs take about half a minute each.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402
from tdabc.evaluation import FoldPlan  # noqa: E402
from tracing import ITERATION, LAYER_SECONDS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return bench("shells-classify", 0)


@pytest.fixture(scope="module")
def traced():
    return bench("shells-classify", 1)


def test_printed_metrics_are_the_declared_ones(untraced, traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for (code, result), key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert code == 0 and result["correct"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(NAME.fullmatch(name) for name in printed)


def test_layer_self_times_sum_to_traced_run(traced):
    _, result = traced
    m = {name: v["value"] for name, v in result["metrics"].items()}
    run_s = m["trace.run_s"]
    # Every span's self time lands in exactly one layer, so nothing is lost...
    assert sum(m[name] for name in LAYER_SECONDS) == pytest.approx(run_s, rel=1e-9)
    # ...and the benchmark's own code between the spans is within the overhead.
    layers = sum(m[name] for name in LAYER_SECONDS if name != "trace.unattributed_s")
    assert abs(layers - run_s) <= abs(m["trace.overhead_s"]) + 0.01 * run_s


@pytest.fixture(scope="module")
def small_cv(tmp_path_factory):
    """iris-cv cut to two folds, so the test stays quick."""
    cv = workloads.iris_cv(0, tmp_path_factory.mktemp("iris"))
    cv.experiments[0].plan = FoldPlan(folds=2, repeats=1, seed=0)
    return cv


def test_clean_cross_validation_checks(small_cv):
    checked = small_cv.check(small_cv.run())
    assert checked.problems == []
    assert (checked.attempted, checked.failed) == (10, 0)


def test_traced_cross_validation_checks(small_cv):
    tracer = Tracer()
    with tracer.installed(), tracer.root(ITERATION):
        out = small_cv.run()
    checked = small_cv.check(out)
    assert checked.problems == []
    assert checked.failed == 0
    assert tracer.layer_metrics(1.0)["classifier.classify_calls"] == 6


class DroppingOne:
    """A workload whose first tdabc-m call loses its last prediction."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def run(self):
        out = self.inner.run()
        call = next(c for c in out.calls[0] if c.classifier == "tdabc-m")
        call.predictions = call.predictions[:-1]
        return out

    def check(self, out):
        return self.inner.check(out)


def test_dropped_prediction_fails_the_run(small_cv):
    m = worker.measure(DroppingOne(small_cv), seconds=0.0, tracer=None)
    assert any("without a prediction" in p for p in m["problems"])


def test_broken_predictions_csv_rows(tmp_path):
    shells = workloads.ShellsClassify(0, tmp_path)
    labels = shells.data.labels
    rows = []
    for c in range(shells.data.n_classes):
        members = [v for v in range(len(labels)) if labels[v] == c]
        take = max(1, round(shells.TEST_FRACTION * len(members)))
        one_hot = tuple(1.0 if k == c else 0.0 for k in range(shells.data.n_classes))
        rows += [(v, c, "link", one_hot) for v in members[:take]]
    assert shells.check_rows(rows) == []
    assert shells.check_rows(rows[1:])
    assert shells.check_rows(rows + rows[:1])
    assert shells.check_rows([(rows[0][0], 7, "link", rows[0][3])] + rows[1:])
    assert shells.check_rows([rows[0][:3] + ((0.5, 0.4, 0.0, 0.0, 0.0),)] + rows[1:])


def test_failed_cli_call_counts_as_failed(tmp_path):
    shells = workloads.ShellsClassify(0, tmp_path)
    checked = shells.check(workloads.CliOutcome(code=2, out=tmp_path))
    assert (checked.attempted, checked.failed) == (1, 1)
    assert checked.problems


def test_digest_ignores_order_but_not_content():
    a = workloads.digest(["1,0,link", "2,1,link"])
    assert a == workloads.digest(["2,1,link", "1,0,link"])
    assert a != workloads.digest(["1,0,link", "2,0,link"])


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iris-cv", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_exactly_the_contract_keys(untraced):
    _, result = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
