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
from pathlib import Path

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
