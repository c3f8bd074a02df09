"""The benchmark calls phfe by name, and tier-1 keeps those calls working.

``perfbench/spans.py`` names each traced (module, function) pair and keys
its counting hooks by function name.  A function renamed in phfe breaks
the traced run, and a hook keyed by a stale name stops counting without
any error, so these checks keep the names in step with the package.

``perfbench/worker.py`` calls phfe in the forms the benchmark times
(``EntropyConfig.from_string``, ``all_configs()``, ``cli.main``); every op
of one cycle of each workload, on a tiny input, must pass the benchmark's
own output check.  The seeded sweep matrix keeps its results bit for bit under every
config and generator.
"""

import hashlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans, workloads, worker, run = map(_load, ("spans", "workloads", "worker", "run"))

#: The tiny sizes of perfbench/test_perfbench.py.
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


def test_every_traced_name_is_a_phfe_function():
    for modname, fname, _layer in spans.TRACED:
        module = importlib.import_module(modname)
        assert inspect.isfunction(getattr(module, fname, None)), f"{modname}.{fname}"


def test_every_hook_names_a_traced_function():
    traced = {fname for _modname, fname, _layer in spans.TRACED}
    assert set(spans.HOOKS) <= traced


def _check_one_cycle(tmp_path, name, tracer=None):
    """One cycle of the workload on TINY, run under ``tracer`` if given; every op must pass."""
    spec = workloads.generate(name, 7, tmp_path, TINY)
    w = worker.WORKLOADS[name](spec, tracer is not None)
    check = run._checker(spec)
    if tracer is not None:
        tracer.install()
    try:
        values = [w.op(k) for k in range(w.cycle)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    for k, value in enumerate(values):
        # check_outputs sees each op as the JSON text of its description.
        value = json.loads(json.dumps(w.describe(value)))
        assert check(str(w.slot(k)), value), (name, w.slot(k))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_worker_ops_pass_the_benchmark_check(tmp_path, name):
    _check_one_cycle(tmp_path, name)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_worker_ops_pass_the_benchmark_check(tmp_path, name):
    # What `run.py --trace 1` runs: a traced function that phfe re-routes or renames
    # must still give the checked outputs.
    tracer = spans.Tracer()
    _check_one_cycle(tmp_path, name, tracer)
    if name in ("distance-long", "axioms"):
        assert tracer.counts["entropy.kernel_evals"] > 0


def test_a_traced_distance_is_charged_to_the_entropy_layer():
    import phfe

    a = phfe.canonicalize([(0.2, 0.3), (0.5, 0.2), (0.9, 0.5)])
    b = phfe.canonicalize([(0.1, 0.6), (0.7, 0.4)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        phfe.entropy_distance(a, b)  # install() rewrites module attributes, not local names
    finally:
        tracer.uninstall()
    l = len(a) * len(b)
    assert tracer.totals()["calls"]["entropy.weighted_comprehensive"] == 1
    assert tracer.counts["entropy.kernel_evals"] == l * (l + 1)


def test_the_seeded_sweep_keeps_its_bits(tmp_path):
    # Every float of run_topsis on the seed-5 topsis-sweep matrix, 18 configs x 4 generators.
    import phfe

    spec = workloads.generate("topsis-sweep", 5, tmp_path)
    with open(spec["matrix"], encoding="utf-8") as fh:
        matrix = phfe.parse_decision_matrix(json.load(fh))
    digest = hashlib.sha256()
    for config in phfe.all_configs():
        for psi in phfe.ALL_PSI:
            r = phfe.run_topsis(matrix, config, psi)
            fields = (r.weights.raw, r.weights.normalized, r.d_plus, r.d_minus, r.closeness)
            line = json.dumps([[x.hex() for x in f] for f in fields] + [list(r.ranking)]) + "\n"
            digest.update(line.encode())
    assert digest.hexdigest() == "bc318e68286ff7b9fdb0d4b77e12fa72783de92c20c78df1573e331d45958fc0"
