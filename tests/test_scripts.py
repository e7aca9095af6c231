"""The experiment scripts start, and the dataset registry maps every name."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from tdabc import datasets as ds
from tdabc.errors import InvalidConfig, TdabcError, UnknownDataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script", ["run_benchmarks.py", "run_imbalance_ramp.py", "run_shell_stress.py"]
)
def test_script_help_exits_zero(script, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), "--help"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(path), run_name="__main__")
    assert excinfo.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("name", ds.NAMES)
def test_every_registered_name_resolves(name):
    data = ds.resolve(name, seed=1, step=2)
    assert len(data) == len(data.points) > 0
    assert data.n_classes >= 2


def test_wine_resolves_log_shifted():
    got = ds.resolve("wine")
    want = ds.log_shift(ds.load_bundled("wine"))
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.labels, want.labels)
    assert got.spec == want.spec


def test_unknown_name_raises():
    with pytest.raises(UnknownDataset):
        ds.resolve("not-a-thing")


def test_ramp_without_step_raises():
    with pytest.raises(TdabcError):
        ds.resolve("ramp")


def test_negative_seed_raises():
    with pytest.raises(InvalidConfig):
        ds.resolve("circles", seed=-1)
