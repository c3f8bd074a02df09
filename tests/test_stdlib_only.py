import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phfe.reproduce import load_table

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs one phfe command in an interpreter started with -S: no site
#: directory is on the path, so only the standard library and phfe
#: itself can be imported.
_RUNNER = """
import sys
from importlib.util import find_spec

assert find_spec("pytest") is None, "third-party packages are still importable"
from phfe.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["topsis", "reproduce", "axioms"])
def test_command_runs_on_the_standard_library_alone(command, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(load_table(9)["matrix"]))
    argv = {
        "topsis": ["topsis", "--input", str(matrix)],
        "reproduce": ["reproduce"],
        "axioms": ["axioms", "--samples", "20"],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _RUNNER, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_only_what_topsis_entropy_and_distance_run():
    # reproduce and axioms import their modules when they run; the
    # value classes are plain classes, so dataclasses, inspect and
    # typing stay unloaded too.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, phfe.cli; print(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "phfe.mcdm" in loaded
    unwanted = {"dataclasses", "inspect", "typing", "phfe.reproduce", "phfe.verify"}
    assert not unwanted & loaded
