"""Walkthrough: which measures tell elements apart, counted on exhaustive grids.

Run from the repository root:

    python demos/06_discrimination.py

The paper claims the existing entropies fail to tell many different
elements apart and that its framework fixes this.  The demo counts it:

1. every canonical element with one to three values on the 1/8 grid and
   probabilities in quarters (369 elements).  Entropy is invariant under
   complement, so each element is merged with its complement into one
   class (189 classes; the member with the smaller ``(values, probs)``
   stands for it).  Per measure id: distinct values, colliding pairs of
   classes and classes at exactly 1.  Values are bucketed with
   ``round(x, 12)``.  ``tests/test_discrimination.py`` pins these counts;
2. the baselines' failure cases named in the paper;
3. on the 1/4 grid, the pairs of distinct elements that
   ``su_like_distance`` puts at 0, against ``entropy_distance``.
"""

import collections
import itertools

from phfe import (
    all_configs,
    canonicalize,
    complement,
    entropy_distance,
    measure_value,
    parse_measure,
    su_entropy_d,
    su_entropy_p1,
    su_like_distance,
)


def grid_elements(step):
    """Canonical elements of one to three values on the ``1/step`` grid, probabilities in quarters."""
    grid = [k / step for k in range(step + 1)]
    quarters = {n: [[p / 4 for p in parts] for parts in itertools.product(range(1, 5), repeat=n)
                    if sum(parts) == 4] for n in (1, 2, 3)}
    return [
        canonicalize(zip(values, probs))
        for n in (1, 2, 3)
        for values in itertools.combinations(grid, n)
        for probs in quarters[n]
    ]


def colliding_pairs(values):
    buckets = collections.Counter(round(x, 12) for x in values)
    return len(buckets), sum(k * (k - 1) // 2 for k in buckets.values())


elements = grid_elements(8)
classes = list(dict.fromkeys(
    min(a, complement(a), key=lambda e: (e.values, e.probs)) for a in elements
))
print(f"1/8 grid: {len(elements)} elements, {len(classes)} classes modulo complement")
print(f"  {'measure id':<12s} {'distinct':>8s} {'colliding':>10s} {'at 1':>5s}")
ids = ["su-p1", "su-p2", "su-d", "r1", "r2", "f1", "f2", "f3"] + [c.label for c in all_configs()]
for measure_id in ids:
    measure = parse_measure(measure_id)
    values = [measure_value(measure, a) for a in classes]
    distinct, colliding = colliding_pairs(values)
    print(f"  {measure_id:<12s} {distinct:>8d} {colliding:>10d} {values.count(1.0):>5d}")
print("  the psum ids separate more classes than any baseline; the max ids and the f1 and f2\n"
      "  bsum ids collide more often than su-p1")

print("\nthe baselines' named failure cases:")
split = canonicalize([(0.0, 0.5), (1.0, 0.5)])
print(f"  su-p1 {split!r} = {su_entropy_p1(split) + 0.0:.4f}, as for a crisp element;"
      f" r1:f1:max = {measure_value(parse_measure('r1:f1:max'), split):.4f}")
a = canonicalize([(0.2, 0.5), (0.8, 0.5)])
b = canonicalize([(0.5, 1.0)])
print(f"  su-d {a!r} = {su_entropy_d(a):.4f} = su-d {b!r}: equal expectations;"
      f" r1:f1:max gives {measure_value(parse_measure('r1:f1:max'), a):.4f}"
      f" and {measure_value(parse_measure('r1:f1:max'), b):.4f}")

quarter = grid_elements(4)
pairs = list(itertools.combinations(quarter, 2))
like_zero = [(a, b) for a, b in pairs if su_like_distance(a, b) == 0.0]
entropy_zero = sum(entropy_distance(a, b) == 0.0 for a, b in pairs)
least = min(entropy_distance(a, b) for a, b in like_zero)
print(f"\n1/4 grid: {len(quarter)} elements, {len(pairs)} pairs of distinct elements")
print(f"  su_like_distance = 0 on {len(like_zero)} pairs (equal expectations)")
print(f"  entropy_distance = 0 on {entropy_zero} pairs; on the su-like zeros it is at least {least:.4f}")
