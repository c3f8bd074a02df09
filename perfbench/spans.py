"""Span recorder for the traced run of the benchmark.

The recorder wraps public functions of the phfe modules from outside the
package: it replaces every reference to such a function in the loaded
phfe module namespaces (and in function defaults) with a wrapper that
records a span (name, start, end, parent) in memory.  Nothing under src/
changes; calls between phfe modules resolve through those namespaces, so
the wrappers see them.  Private helpers (kernels, ``pi``) are not wrapped:
their time is self time of the span that calls them.

Counts that a later change may rest a claim on are computed from the
sizes of the arguments and results, never from timing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

#: (module, function, layer).  A span's self time is charged to its layer.
TRACED = (
    [("phfe.cli", "main", "cli")]
    + [("phfe.elements", f, "elements.parse") for f in ("parse_phfe", "parse_phfe_list", "from_linguistic")]
    + [
        ("phfe.elements", "canonicalize", "elements.canonicalize"),
        ("phfe.elements", "complement", "elements.complement"),
    ]
    + [
        ("phfe.baselines", f, "baselines")
        for f in ("su_entropy_p1", "su_entropy_p2", "su_entropy_d", "expectation", "su_like_distance")
    ]
    + [("phfe.verify", "run_axiom_suites", "verify")]
    + [
        ("phfe.entropy", f, "entropy.element")
        for f in ("fuzziness_entropy", "nonspecificity_entropy", "comprehensive_entropy")
    ]
    + [
        ("phfe.entropy", "weighted_comprehensive", "entropy.hybrid"),
        ("phfe.distance", "entropy_distance", "distance"),
        ("phfe.distance", "hybrid", "distance.hybrid"),
        ("phfe.mcdm", "entropy_weights", "mcdm.weights"),
        ("phfe.mcdm", "ideal_distances", "mcdm.ideal"),
    ]
    + [
        ("phfe.mcdm", f, "mcdm")
        for f in (
            "run_topsis",
            "closeness",
            "parse_decision_matrix",
            "result_to_dict",
            "format_result_table",
            "matrix_to_dict",
        )
    ]
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))


def _base_sum(tracer: "Tracer", fn, args, kwargs, result) -> None:
    # One element-level base sum: l(l+1)/2 kernel evaluations.
    a = args[0]
    l = len(a)
    tracer.counts["entropy.kernel_evals"] += l * (l + 1) // 2
    if tracer.mcdm_depth:
        kernel = args[1] if len(args) > 1 else kwargs.get("kernel", fn.__defaults__[0])
        tracer.counts["mcdm.base_entropy_evals"] += 1
        tracer.distinct_bases.add((a, kernel))


def _hybrid_sums(tracer, fn, args, kwargs, result) -> None:
    # Fuzziness and non-specificity sums over L entries: L(L+1)/2 each.
    l = len(args[0])
    tracer.counts["entropy.kernel_evals"] += l * (l + 1)


def _hybrid_entries(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["distance.hybrid_entries"] += len(args[0]) * len(args[1])


def _pairs_built(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["elements.pairs_built"] += len(result)


HOOKS = {
    "fuzziness_entropy": _base_sum,
    "nonspecificity_entropy": _base_sum,
    "weighted_comprehensive": _hybrid_sums,
    "hybrid": _hybrid_entries,
    "canonicalize": _pairs_built,
}


class Tracer:
    """In-memory spans of the phfe calls made while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name per code
        self.layer_of: list[str] = []  # layer per code
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.mcdm_depth = 0
        self.counts = {
            "entropy.kernel_evals": 0,
            "mcdm.base_entropy_evals": 0,
            "distance.hybrid_entries": 0,
            "elements.pairs_built": 0,
        }
        self.distinct_bases: set = set()
        self.distinct_total = 0
        self.first_cycle_spans: int | None = None
        self._wrappers: dict = {}  # original function -> wrapper
        self._saved: list = []

    def _wrap(self, fn, name: str, layer: str):
        code = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = HOOKS.get(fn.__name__)
        scoped = layer.startswith("mcdm")
        codes, starts, ends, parents, stack = self.code, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            self.mcdm_depth += scoped
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                self.mcdm_depth -= scoped
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Route every reference to a traced function through its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "phfe" or n.startswith("phfe.")]
        for modname, fname, layer in TRACED:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            original = getattr(mod, fname)
            if original not in self._wrappers:
                self._wrappers[original] = self._wrap(original, f"{modname[5:]}.{fname}", layer)
        functions = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                functions[id(value)] = value
                wrapper = self._wrappers.get(value)
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        # Defaults bound at definition, e.g. run_axiom_suites(complement_fn=complement).
        for fn in functions.values():
            defaults = fn.__defaults__ or ()
            if any(inspect.isfunction(d) and d in self._wrappers for d in defaults):
                self._saved.append((fn, "__defaults__", defaults))
                fn.__defaults__ = tuple(
                    self._wrappers.get(d, d) if inspect.isfunction(d) else d for d in defaults
                )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def end_cycle(self) -> None:
        """Close one traced cycle: reuse is counted within a cycle."""
        self.distinct_total += len(self.distinct_bases)
        self.distinct_bases.clear()
        if self.first_cycle_spans is None:
            self.first_cycle_spans = len(self.code)

    def totals(self) -> dict:
        """Self time per layer, span count per name, and the counters."""
        n = len(self.code)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for i in range(n):
            code = self.code[i]
            self_s[self.layer_of[code]] += self.end[i] - self.start[i] - child[i]
            calls[self.names[code]] += 1
        return {
            "self_s": self_s,
            "calls": calls,
            "counts": dict(self.counts),
            "distinct_bases": self.distinct_total,
            "spans": n,
        }

    def dump(self) -> dict:
        """Spans of the first traced cycle as columns, times in ns from its
        first span.  Every traced cycle does the same work."""
        n = len(self.code) if self.first_cycle_spans is None else self.first_cycle_spans
        t0 = self.start[0] if n else 0.0
        return {
            "names": self.names,
            "name": list(self.code[:n]),
            "parent": list(self.parent[:n]),
            "start_ns": [round((t - t0) * 1e9) for t in self.start[:n]],
            "end_ns": [round((t - t0) * 1e9) for t in self.end[:n]],
        }
