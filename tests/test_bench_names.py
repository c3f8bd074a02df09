"""The traced benchmark run wraps phfe functions by name.

``perfbench/spans.py`` names each traced (module, function) pair and keys
its counting hooks by function name.  A function renamed in phfe breaks
the traced run, and a hook keyed by a stale name stops counting without
any error, so these checks keep the names in step with the package.
"""

import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_every_traced_name_is_a_phfe_function():
    for modname, fname, _layer in spans.TRACED:
        module = importlib.import_module(modname)
        assert inspect.isfunction(getattr(module, fname, None)), f"{modname}.{fname}"


def test_every_hook_names_a_traced_function():
    traced = {fname for _modname, fname, _layer in spans.TRACED}
    assert set(spans.HOOKS) <= traced
