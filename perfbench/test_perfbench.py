"""Tiny-shape self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q perfbench``.  It
drives every workload end to end (generation, worker processes, output
checks, metrics) on inputs small enough to finish in seconds.
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = workloads.Shape(
    rows=4,
    cols=3,
    cli_files=2,
    distance_ops=4,
    min_long_values=2,
    max_long_values=4,
    axiom_samples=20,
    axiom_trace_cycle=1,
)

#: sha256 of ``phfe topsis --format json`` on the tiny seed-7 matrix, as
#: printed by the code the benchmark was defined against.
TINY_SEED7_CLI_SHA256 = "b78c1ed474dd794eab9911cbaca7257978ff72ff34003a40818ca5331d156d14"


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    record = run.run(workload, seed=7, seconds=0.2, trace=trace, shape=TINY, setup_repeats=1)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in record["metrics"].items()
    }
    values = [m["value"] for m in record["metrics"].values()]
    assert all(math.isfinite(v) and v >= 0 for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert record["metrics"] and "\n".join(run.report(record))


def test_benchmark_json_lists_known_workloads():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names and set(names) <= set(workloads.WORKLOADS)


def test_inputs_follow_the_seed_and_keep_the_work_fixed(tmp_path):
    a = workloads.generate("distance-long", 1, tmp_path, TINY)
    b = workloads.generate("distance-long", 1, tmp_path, TINY)
    c = workloads.generate("distance-long", 2, tmp_path, TINY)
    assert a["pool"] == b["pool"] and a["pool"] != c["pool"]
    assert [len(e) for e in a["pool"]] == [len(e) for e in c["pool"]]
    m1 = workloads.decision_matrix(workloads.Rng(1, "x"), TINY)
    m2 = workloads.decision_matrix(workloads.Rng(2, "x"), TINY)

    def lengths(m):
        return sorted(len(cell.get("pairs") or cell["terms"]) for row in m["cells"] for cell in row)

    assert lengths(m1) == lengths(m2)


def test_cli_output_matches_the_recorded_digest():
    matrix = workloads.decision_matrix(workloads.Rng(7, "cli0"), TINY)
    text = reference.topsis_cli_stdout(matrix)
    assert hashlib.sha256(text.encode()).hexdigest() == TINY_SEED7_CLI_SHA256


def test_checks_reject_wrong_outputs(tmp_path):
    spec = workloads.generate("distance-long", 1, tmp_path, TINY)
    pool = [reference.canonical(p) for p in spec["pool"]]
    a, b, s, c = spec["schedule"][0]
    d = reference.distance(pool[a], pool[b], reference.PSI[s], reference.config(c))
    outputs = {"0": {json.dumps(d): 3, json.dumps(d + 1e-9): 2, json.dumps({"error": "boom"}): 1}}
    assert run.check_outputs(spec, outputs) == (6, 3)

    spec = workloads.generate("topsis-cli", 1, tmp_path, TINY)
    outputs = {"0": {json.dumps([0, "0" * 64]): 1}, "1": {json.dumps([2, "0" * 64]): 1}}
    assert run.check_outputs(spec, outputs) == (2, 2)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(99)], 0.9) is None
    assert run.tail_percentile([float(i) for i in range(100)], 0.9) == (89.0, 10)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "axioms", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
