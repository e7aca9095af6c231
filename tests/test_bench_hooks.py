"""The benchmark in ``perfbench/`` wraps library attributes by name.

Its own self-tests run apart from this suite, so a rename or a changed
signature here would break the benchmark unseen.  These tests load the
benchmark's modules from their files and check that every name they wrap
still exists and takes the parameters they bind.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_every_traced_target_is_an_attribute_of_its_owner(tracing):
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _metric, _hook in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_captured_calls_take_the_bound_parameters(workloads):
    import tdabc.evaluation as evaluation

    for attr in workloads.Capture.TARGETS:
        params = inspect.signature(getattr(evaluation, attr)).parameters
        assert "table" in params
        assert ("policy" in params) != ("config" in params)


def test_capture_names_every_roster_call(workloads):
    """perfbench names each captured call by matching its settings to a roster
    entry, falling back to the settings' ``repr``: every call of the default
    roster must come back under its own name, once per fold."""
    from tdabc.datasets import make_circles
    from tdabc.evaluation import FoldPlan, default_classifiers, run_experiment
    from tdabc.rips import RipsConfig

    roster = default_classifiers()
    capture = workloads.Capture(roster)
    with capture.installed():
        run_experiment(make_circles((12, 12)), roster, FoldPlan(2, 1, 0),
                       RipsConfig(max_dim=2, max_edge=0.5))
    names = Counter(call.classifier for call in capture.take())
    assert names == {spec.name: 2 for spec in roster}


def test_predictions_expose_the_fields_the_benchmark_reads():
    """perfbench iterates each call's result, or a slice of it, and reads
    ``.vertex``, ``.label``, ``.probability`` and ``.provenance`` per element."""
    from tdabc.baselines import KnnConfig, knn_predict_all
    from tdabc.classifier import AssociationTable, classify_all
    from tdabc.persistence import boundary_reduce
    from tdabc.rips import RipsConfig, build_rips, pairwise_distances
    from tdabc.selection import SelectionPolicy

    points = np.random.default_rng(0).normal(size=(12, 2))
    dist = pairwise_distances(points)
    complex_ = build_rips(dist, RipsConfig(max_dim=2, max_edge=1.5))
    tests = frozenset({1, 4, 7, 10})
    table = AssociationTable({v: v % 2 for v in range(12) if v not in tests}, tests, 2)
    for preds in (
        classify_all(complex_, boundary_reduce(complex_), table, SelectionPolicy(), dist),
        knn_predict_all(dist, table, KnnConfig(k=3)),
    ):
        for view in (preds, preds[1:]):
            rows = [(p.vertex, p.label, p.provenance, p.probability) for p in view]
            assert [v for v, *_ in rows] == sorted(tests)[len(preds) - len(view):]
            for _, label, provenance, probability in rows:
                assert 0 <= label < 2
                assert isinstance(provenance, str) and provenance
                assert len(probability) == 2 and sum(probability) == pytest.approx(1.0)
