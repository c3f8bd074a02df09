"""Walkthrough: the randomized axiom harness, and how a wrong operation is caught.

Run from the repository root:

    python demos/04_axiom_checks.py
"""

import phfe.verify
from phfe.elements import canonicalize, complement
from phfe.verify import run_axiom_suites

print("healthy run (200 samples, seed 7):")
for result in run_axiom_suites(seed=7, samples=200):
    print(f"  [{'PASS' if result.passed else 'FAIL'}] {result.name}")


def corrupted_complement(a):
    """Maps each value v to 1 - 0.9 v instead of 1 - v."""
    shifted = [(min(1.0, 1.0 - v * 0.9), p) for v, p in a]
    values = sorted(v for v, _ in shifted)
    if len(set(values)) != len(values):
        shifted = [(v * 0.5 + i * 1e-3, p) for i, (v, p) in enumerate(shifted)]
    return canonicalize(shifted)


print()
print("mutation run: phfe.verify.complement is replaced by a corrupted one,")
print("so the suites that depend on it must catch a counterexample:")
phfe.verify.complement = corrupted_complement
try:
    for result in run_axiom_suites(seed=7, samples=200):
        if not result.passed:
            print(f"  [FAIL] {result.name}")
            print(f"         {result.counterexample}")
finally:
    phfe.verify.complement = complement
