"""Layered benchmark of phfe: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload topsis-cli --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed with the
benchmark's own generator, then starts fresh interpreters (worker.py)
that import phfe from ``src/`` and load the inputs: several only to time
set-up, and one that also runs the workload closed-loop, one op at a time
from a single client, for the given number of seconds.  Every op's output
is checked against reference.py after the timed region.

Op times are reported as measured and, for the gated metrics, scaled to a
reference host speed by a fixed probe timed after every op (worker.py).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
the worker alternates untraced and traced cycles and the run reports
per-layer self times and counts per op.  The report goes to stdout, whose
last line is one JSON object, and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only interpreters per run, half before and half after the
#: worker, whose own set-up is one more sample.
SETUP_REPEATS = 8

#: About the probe's mean time on the host the benchmark was tuned on (a
#: shared 2-core VM, Python 3.11).  Normalised op times are op times
#: multiplied by PROBE_REF_S / (a probe time measured beside them).
PROBE_REF_S = 1.5e-3

#: A worker still running this long after its run time is killed.
GRACE_S = 120

#: Workers run single-threaded: numpy's OpenBLAS otherwise starts a thread
#: per core on import, and that start-up made setup_s swing with the host.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

E2E_UNITS = {"ops_per_s_norm": "1/s", "op_p50_ms_norm": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "cli.self_s": "s",
    "elements.parse_s": "s",
    "elements.canonicalize_s": "s",
    "elements.canonicalize_calls": "count",
    "elements.pairs_built": "count",
    "elements.complement_s": "s",
    "baselines.s": "s",
    "verify.self_s": "s",
    "entropy.element_s": "s",
    "entropy.element_calls": "count",
    "entropy.hybrid_s": "s",
    "entropy.kernel_evals": "count",
    "entropy.kernel_evals_per_s": "1/s",
    "distance.calls": "count",
    "distance.hybrid_s": "s",
    "distance.hybrid_entries": "count",
    "distance.self_s": "s",
    "mcdm.weights_s": "s",
    "mcdm.ideal_s": "s",
    "mcdm.self_s": "s",
    "mcdm.base_entropy_evals": "count",
    "mcdm.base_entropy_reuse": "ratio",
    "trace.overhead_ratio": "ratio",
}

NOISE_NOTE = (
    "tuned on a shared 2-core VM where single calls varied by about 20% and "
    "the host's speed drifted by up to 2x over tens of seconds; compare medians "
    "of repeated runs"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _worker(spec_path: Path, mode: str, timeout: float) -> float:
    """Run one worker to completion; return seconds from start to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), mode],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=WORKER_ENV,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) ran past {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) failed with exit code {proc.returncode}")
    return setup_s


# ---------------------------------------------------------------------------
# Output checks, outside every timed region
# ---------------------------------------------------------------------------


def _checker(spec: dict):
    """check(slot, value) -> bool for the workload's op outputs."""
    name = spec["workload"]
    if name == "topsis-cli":
        want = {}
        for i, path in enumerate(spec["files"]):
            text = reference.topsis_cli_stdout(json.loads(Path(path).read_text()))
            want[str(i)] = [0, hashlib.sha256(text.encode()).hexdigest()]
        return lambda slot, value: value == want[slot]
    if name == "topsis-sweep":
        matrix = json.loads(Path(spec["matrix"]).read_text())
        cache: dict = {}

        def check_sweep(slot, value):
            if slot not in cache:
                cache[slot] = reference.topsis(matrix, slot)
            return reference.topsis_agrees(value, cache[slot])

        return check_sweep
    if name == "distance-long":
        pool = [reference.canonical(pairs) for pairs in spec["pool"]]
        want = {
            str(k): reference.distance(pool[a], pool[b], reference.PSI[s], reference.config(c))
            for k, (a, b, s, c) in enumerate(spec["schedule"])
        }
        return lambda slot, value: abs(value - want[slot]) <= reference.TOL
    if name == "axioms":
        return lambda slot, value: bool(value) and all(passed for _, _, passed in value)
    raise BenchError(f"no checker for {name!r}")


def check_outputs(spec: dict, outputs: dict) -> tuple[int, int]:
    """(attempted, failed): an op fails when it raised or its output is wrong."""
    check = _checker(spec)
    attempted = failed = 0
    for slot, values in outputs.items():
        for text, count in values.items():
            value = json.loads(text)
            attempted += count
            if isinstance(value, dict) or not check(slot, value):
                failed += count
    return attempted, failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float], q: float) -> tuple[float, int] | None:
    """Nearest-rank q-quantile and the number of samples beyond it, or
    None when fewer than TAIL_SAMPLES lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < TAIL_SAMPLES:
        return None
    return ordered[rank - 1], beyond


def end_to_end(work: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    lat, probes = work["latencies_s"], work["probes_s"]
    probe_s = statistics.fmean(probes)
    ops_per_s = len(lat) / sum(lat)
    op_p50_s = statistics.median(lat)
    metrics = {
        # A rate over the whole run scales by the probe's mean over it, so
        # a run spanning two speed states weighs them alike on both sides.
        "ops_per_s_norm": ops_per_s * probe_s / PROBE_REF_S,
        # Each op scales by the probe timed right after it.
        "op_p50_ms_norm": statistics.median(t / p for t, p in zip(lat, probes)) * PROBE_REF_S * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": work["peak_rss_kb"] / 1024.0,
    }
    p90 = tail_percentile(lat, 0.9)
    extra = {
        "samples": len(lat),
        "wall_s": work["wall_s"],
        "ops_per_s": ops_per_s,
        "op_p50_ms": op_p50_s * 1e3,
        "probe_mean_ms": probe_s * 1e3,
        "op_p90_ms": None if p90 is None else p90[0] * 1e3,
        "op_p90_beyond": None if p90 is None else p90[1],
        "setup_samples_s": setup_samples,
    }
    return metrics, extra


def per_layer(work: dict) -> dict:
    """Per-op self times and counts of the traced cycles."""
    t = work["layers"]
    ops = work["traced_ops"]
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    entropy_s = self_s["entropy.element"] + self_s["entropy.hybrid"]
    base_evals = counts["mcdm.base_entropy_evals"]
    totals = {
        "cli.self_s": self_s["cli"],
        "elements.parse_s": self_s["elements.parse"],
        "elements.canonicalize_s": self_s["elements.canonicalize"],
        "elements.canonicalize_calls": n_calls("elements.canonicalize"),
        "elements.pairs_built": counts["elements.pairs_built"],
        "elements.complement_s": self_s["elements.complement"],
        "baselines.s": self_s["baselines"],
        "verify.self_s": self_s["verify"],
        "entropy.element_s": self_s["entropy.element"],
        "entropy.element_calls": n_calls(
            "entropy.fuzziness_entropy", "entropy.nonspecificity_entropy", "entropy.comprehensive_entropy"
        ),
        "entropy.hybrid_s": self_s["entropy.hybrid"],
        "entropy.kernel_evals": counts["entropy.kernel_evals"],
        "distance.calls": n_calls("distance.entropy_distance"),
        "distance.hybrid_s": self_s["distance.hybrid"],
        "distance.hybrid_entries": counts["distance.hybrid_entries"],
        "distance.self_s": self_s["distance"],
        "mcdm.weights_s": self_s["mcdm.weights"],
        "mcdm.ideal_s": self_s["mcdm.ideal"],
        "mcdm.self_s": self_s["mcdm"],
        "mcdm.base_entropy_evals": base_evals,
    }
    metrics = {name: value / ops for name, value in totals.items()}
    metrics["entropy.kernel_evals_per_s"] = counts["entropy.kernel_evals"] / entropy_s if entropy_s else 0.0
    metrics["mcdm.base_entropy_reuse"] = t["distinct_bases"] / base_evals if base_evals else 0.0
    metrics["trace.overhead_ratio"] = work["traced_wall_s"] / work["untraced_wall_s"]
    return {name: metrics[name] for name in LAYER_UNITS}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phfe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "note": NOISE_NOTE,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    shape: workloads.Shape = workloads.DEFAULT,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Generate, set up, run, check; return the full record of the run."""
    if not (ROOT / "src" / "phfe" / "__init__.py").is_file():
        raise BenchError(f"phfe sources not found under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=OUT) as tmp:
        work_dir = Path(tmp)
        spec = workloads.generate(workload, seed, work_dir, shape)
        spec["seconds"] = seconds
        spec["outputs"] = str(work_dir / "outputs.json")
        spec["spans"] = str(OUT / f"{workload}-seed{seed}-spans.json.gz")
        spec_path = work_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        # Only the untraced run reports setup_s.  Samples taken before and
        # after the worker see more of the host's slow drift.
        repeats = 0 if trace else setup_repeats
        setup_samples = [_worker(spec_path, "setup", GRACE_S) for _ in range(repeats // 2)]
        setup_samples.append(_worker(spec_path, "trace" if trace else "run", seconds + GRACE_S))
        setup_samples += [_worker(spec_path, "setup", GRACE_S) for _ in range(repeats - repeats // 2)]
        work = json.loads(Path(spec["outputs"]).read_text(encoding="utf-8"))
        attempted, failed = check_outputs(spec, work.pop("outputs"))

    record = {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "first_error": work["first_error"],
    }
    if trace:
        record["metrics"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in per_layer(work).items()}
        record["extra"] = {
            "traced_ops": work["traced_ops"],
            "spans": work["layers"]["spans"],
            "spans_file": os.path.relpath(spec["spans"], ROOT),
            "calls": work["layers"]["calls"],
            # Held spans included, so not comparable with peak_rss_mb.
            "traced_peak_rss_mb": work["peak_rss_kb"] / 1024.0,
        }
    else:
        metrics, extra = end_to_end(work, setup_samples)
        record["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        record["extra"] = extra
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    record["results_file"] = os.path.relpath(path, ROOT)
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric by name, value and unit."""
    lines = [
        f"phfe benchmark: workload {record['workload']}, seed {record['seed']}, "
        f"{record['run_seconds']} s, trace {record['trace']}"
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    extra = record["extra"]
    if not record["trace"]:
        lines.append(f"  {'ops_per_s':<28} {extra['ops_per_s']:>14.6g} 1/s (as measured)")
        lines.append(f"  {'op_p50_ms':<28} {extra['op_p50_ms']:>14.6g} ms  (as measured)")
        lines.append(
            f"  {'probe_mean_ms':<28} {extra['probe_mean_ms']:>14.6g} ms  "
            f"(reference {PROBE_REF_S * 1e3:g} ms)"
        )
        if extra["op_p90_ms"] is None:
            lines.append(
                f"  {'op_p90_ms':<28} {'not reported':>14}    "
                f"({extra['samples']} samples; fewer than {TAIL_SAMPLES} beyond p90)"
            )
        else:
            lines.append(
                f"  {'op_p90_ms':<28} {extra['op_p90_ms']:>14.6g} ms "
                f"({extra['samples']} samples, {extra['op_p90_beyond']} beyond)"
            )
    lines.append(
        f"  {'failed_ratio':<28} {record['failed_ratio']:>14.6g}    "
        f"({record['failed']} failed of {record['attempted']} attempted)"
    )
    env = record["env"]
    lines.append(
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu']}, commit {env['commit']}, seed {env['seed']}"
    )
    lines.append(f"  note: {env['note']}")
    lines.append(f"  results: {record['results_file']}")
    if record["first_error"]:
        lines.append("  first failing op:\n" + record["first_error"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(record)))
    line = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
