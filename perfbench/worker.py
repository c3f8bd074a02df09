"""One fresh interpreter that sets a workload up and runs it.

Usage: ``python worker.py <spec.json> <setup|run|trace>``, started by
run.py.  The worker prints ``ready`` once ``phfe`` is imported and the
workload's inputs are loaded into library objects, so the parent can time
set-up from process start; in ``setup`` mode it exits there.  Otherwise it
runs whole cycles of the workload's op schedule closed-loop, one op at a
time, until the spec's run time has passed, and writes timings and the
outputs of every op to the spec's ``outputs`` file.  The parent checks the
outputs; nothing here knows the expected values.

In ``run`` mode a fixed probe runs after every op, timed apart from it,
so the parent can express op times relative to the host's speed at that
moment.

``trace`` mode alternates untraced and traced cycles of identical work,
so the per-layer numbers and the tracing overhead come from one run.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_phfe():
    """phfe from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import phfe

    if SRC not in Path(phfe.__file__).resolve().parents:
        raise SystemExit(f"phfe was imported from {phfe.__file__}, not from {SRC}")
    return phfe


class TopsisCli:
    """Op: one in-process ``phfe topsis --format json`` on the next file."""

    def __init__(self, spec: dict, traced: bool):
        from phfe import cli

        self.cli = cli
        self.files = spec["files"]
        self.cycle = len(self.files)

    def slot(self, k: int):
        return k % self.cycle

    def op(self, k: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["topsis", "--input", self.files[k % self.cycle], "--format", "json"])
        return code, out.getvalue()

    @staticmethod
    def describe(value):
        code, text = value
        return [code, hashlib.sha256(text.encode()).hexdigest()]


class TopsisSweep:
    """Op: one ``run_topsis`` on the matrix; ops cycle through all_configs()."""

    def __init__(self, spec: dict, traced: bool):
        import phfe

        self.phfe = phfe
        with open(spec["matrix"], encoding="utf-8") as fh:
            self.matrix = phfe.parse_decision_matrix(json.load(fh))
        self.configs = phfe.all_configs()
        self.cycle = len(self.configs)

    def slot(self, k: int):
        return self.configs[k % self.cycle].label

    def op(self, k: int):
        return self.phfe.run_topsis(self.matrix, self.configs[k % self.cycle])

    @staticmethod
    def describe(r):
        return [
            list(r.weights.raw),
            list(r.weights.normalized),
            list(r.d_plus),
            list(r.d_minus),
            list(r.closeness),
            list(r.ranking),
        ]


class DistanceLong:
    """Op: one ``entropy_distance`` between two long elements of the pool."""

    def __init__(self, spec: dict, traced: bool):
        import phfe

        self.phfe = phfe
        pool = [phfe.canonicalize(pairs) for pairs in spec["pool"]]
        psi = {p.variant: p for p in phfe.ALL_PSI}
        self.schedule = [
            (pool[a], pool[b], psi[s], phfe.EntropyConfig.from_string(c))
            for a, b, s, c in spec["schedule"]
        ]
        self.cycle = len(self.schedule)

    def slot(self, k: int):
        return k % self.cycle

    def op(self, k: int):
        return self.phfe.entropy_distance(*self.schedule[k % self.cycle])

    @staticmethod
    def describe(d):
        return d


class Axioms:
    """Op: one ``run_axiom_suites(seed_k, samples)``, a new seed per op.

    A traced run repeats a short cycle of seeds instead, so that its
    traced and untraced cycles do the same work.
    """

    def __init__(self, spec: dict, traced: bool):
        from phfe import verify

        self.verify = verify
        self.base = spec["base_seed"]
        self.samples = spec["samples"]
        self.cycle = spec["trace_cycle"] if traced else 1
        self.repeat = traced

    def slot(self, k: int):
        return self.base + (k % self.cycle if self.repeat else k)

    def op(self, k: int):
        return self.verify.run_axiom_suites(self.slot(k), self.samples)

    @staticmethod
    def describe(results):
        return [[r.name, r.samples, r.passed] for r in results]


WORKLOADS = {
    "topsis-cli": TopsisCli,
    "topsis-sweep": TopsisSweep,
    "distance-long": DistanceLong,
    "axioms": Axioms,
}


class Recorder:
    """Outputs of every op, grouped by schedule slot and distinct value.

    An output is reduced to its description as soon as its op has been
    timed, so the worker's memory does not grow with the number of ops.
    """

    def __init__(self, workload):
        self.workload = workload
        self.grouped: dict[str, dict[str, int]] = {}
        self.first_error: str | None = None

    def call(self, k: int):
        """Run op k; return its output, or the exception it raised."""
        try:
            return self.workload.op(k)
        except (Exception, SystemExit) as exc:  # an op that fails is counted, not fatal
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            return exc

    def keep(self, k: int, value) -> None:
        if isinstance(value, BaseException):
            text = json.dumps({"error": f"{type(value).__name__}: {value}"})
        else:
            text = json.dumps(self.workload.describe(value))
        slot = self.grouped.setdefault(str(self.workload.slot(k)), {})
        slot[text] = slot.get(text, 0) + 1


def probe() -> float:
    """Fixed interpreter work that tracks the host's speed.

    Float arithmetic, calls, tuples, a dict and a sort, the kind of work
    phfe's pure-Python engine does; nothing here depends on phfe or on
    the seed, so its time changes only with the host.
    """
    acc = 0.0
    table = {}
    for i in range(3000):
        x = (i % 97) / 97.0
        y = ((i * 7) % 89) / 89.0
        acc += abs(1.0 - 4.0 * x * y) ** 1.5 * (x + y - x * y)
        table[i % 50] = (x, y)
    return acc + len(sorted(table.values()))


def timed_loop(workload, seconds: float) -> dict:
    rec = Recorder(workload)
    clock = time.perf_counter
    latencies, probes = [], []
    k = 0
    start = clock()
    while True:
        for _ in range(workload.cycle):
            t0 = clock()
            value = rec.call(k)
            t1 = clock()
            probe()
            probes.append(clock() - t1)
            latencies.append(t1 - t0)
            rec.keep(k, value)
            k += 1
        if clock() - start >= seconds:
            break
    wall = clock() - start
    return {"ops": k, "wall_s": wall, "latencies_s": latencies, "probes_s": probes, "recorder": rec}


def traced_loop(workload, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    rec = Recorder(workload)
    clock = time.perf_counter
    wall = {False: 0.0, True: 0.0}
    traced_ops = k = 0
    start = clock()
    pair = 0
    while True:
        # Alternate which side goes first so drift does not favour one.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = clock()
            for i in range(workload.cycle):
                rec.keep(i, rec.call(i))
            wall[traced] += clock() - t0
            if traced:
                tracer.uninstall()
                tracer.end_cycle()
                traced_ops += workload.cycle
            k += workload.cycle
        pair += 1
        if clock() - start >= seconds:
            break
    return {
        "ops": k,
        "traced_ops": traced_ops,
        "untraced_wall_s": wall[False],
        "traced_wall_s": wall[True],
        "layers": tracer.totals(),
        "tracer": tracer,
        "recorder": rec,
    }


def main(argv: list[str]) -> int:
    spec_path, mode = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import_phfe()
    workload = WORKLOADS[spec["workload"]](spec, mode == "trace")
    print("ready", flush=True)
    if mode == "setup":
        return 0
    loop = traced_loop if mode == "trace" else timed_loop
    result = loop(workload, spec["seconds"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec = result.pop("recorder")
    result["outputs"] = rec.grouped
    result["first_error"] = rec.first_error
    tracer = result.pop("tracer", None)
    if tracer is not None:
        with gzip.open(spec["spans"], "wt", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    Path(spec["outputs"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
