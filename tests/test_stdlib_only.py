import functools
import json
import os
import shutil
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


def _interpreters() -> dict[str, str]:
    """sys.executable, then each python3.N (N = 10..14) on PATH that starts within
    10 s and is another minor version, keyed by that version."""
    found = {"%d.%d" % sys.version_info[:2]: sys.executable}
    for minor in range(10, 15):
        path = shutil.which(f"python3.{minor}")
        if path is None:
            continue
        try:
            proc = subprocess.run(
                [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=10,
            )
        except subprocess.TimeoutExpired:
            continue
        if proc.returncode == 0:
            found.setdefault(proc.stdout.strip(), path)
    return found


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("stdlib") / "matrix.json"
    path.write_text(json.dumps(load_table(9)["matrix"]))
    return path


@functools.cache
def _run(interpreter: str, argv: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [interpreter, "-S", "-c", _RUNNER, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("command, interpreter", [
    pytest.param(command, path, id=command if path == sys.executable else f"{command}-{version}")
    for version, path in _interpreters().items()
    for command in ("topsis", "reproduce", "axioms")
])
def test_command_runs_on_the_standard_library_alone(command, interpreter, matrix):
    argv = {
        "topsis": ("topsis", "--input", str(matrix)),
        "reproduce": ("reproduce",),
        "axioms": ("axioms", "--samples", "20"),
    }[command]
    proc = _run(interpreter, argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == _run(sys.executable, argv).stdout


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
