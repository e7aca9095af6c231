"""The README's commands parse, its Python blocks run, and the dataset
registry maps every name."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import tdabc.datasets as ds
from tdabc.cli import build_parser
from tdabc.errors import InvalidConfig, TdabcError, UnknownDataset

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language: str = r"[^\n]*") -> list[str]:
    """The README's fenced code blocks whose info string matches ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def readme_commands() -> list[str]:
    """Every ``tdabc`` command line in the README's fenced code blocks, with
    its comment dropped."""
    lines = "\n".join(readme_blocks()).splitlines()
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
    except InvalidConfig as exc:
        pytest.fail(f"{command!r} does not parse: {exc}")


PYTHON_BLOCKS = readme_blocks("python")


def test_readme_harness_block_states_its_value():
    assert sum("# ≈ " in block for block in PYTHON_BLOCKS) == 1


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch, capsys):
    """Each ``python`` block runs in a fresh directory, and a block whose
    comment gives a value as ``≈ x`` prints it rounded to x's digits."""
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out.split()
    for stated in re.findall(r"# ≈ ([0-9.]+)", block):
        digits = len(stated.partition(".")[2])
        assert f"{float(printed[-1]):.{digits}f}" == stated


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
