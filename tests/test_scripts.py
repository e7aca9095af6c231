"""The README's commands parse, and the dataset registry maps every name."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from tdabc import datasets as ds
from tdabc.cli import build_parser
from tdabc.errors import InvalidConfig, TdabcError, UnknownDataset

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Every ``tdabc`` command line in the README's fenced code blocks, with
    its comment dropped."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).splitlines()
    return [" ".join(shlex.split(line, comments=True)) for line in lines
            if line.strip().startswith("tdabc ")]


def test_readme_gives_the_experiment_commands():
    commands = readme_commands()
    assert any("--ramp" in c and "--max-edge 0.3" in c for c in commands)
    assert any("--dataset moons" in c and "--max-dim 3" in c for c in commands)


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    try:
        build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} does not parse (exit {exc.code})")


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
