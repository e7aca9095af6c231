"""The package runs on numpy alone: SciPy is a test dependency only."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``tdabc`` with the given arguments, or only imports it when there are
# none, in an interpreter whose import system refuses every scipy module.
NO_SCIPY = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, NoScipy())
import tdabc
from tdabc.cli import main
sys.exit(main(sys.argv[1:]) if len(sys.argv) > 1 else 0)
"""


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("persistence", "--dataset", "circles"),
        ("classify", "--dataset", "moons"),
    ],
    ids=["import", "persistence", "classify"],
)
def test_runs_without_scipy(tmp_path, argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    args = [*argv, "--out", str(tmp_path)] if argv else []
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
