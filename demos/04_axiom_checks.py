"""Walkthrough: the randomized axiom harness, including mutation mode.

Run from the repository root:

    python demos/04_axiom_checks.py
"""

from phfe.verify import corrupted_complement, run_axiom_suites

print("healthy run (200 samples, seed 7):")
for result in run_axiom_suites(seed=7, samples=200):
    print(f"  [{'PASS' if result.passed else 'FAIL'}] {result.name}")

print()
print("mutation run: the complement operation is deliberately corrupted,")
print("so the suites that depend on it must catch a counterexample:")
for result in run_axiom_suites(seed=7, samples=200, complement_fn=corrupted_complement):
    if not result.passed:
        print(f"  [FAIL] {result.name}")
        print(f"         {result.counterexample}")
