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
   ``su_like_distance`` puts at 0, against ``entropy_distance``;
4. which distance axioms hold there: the triangle inequality fails.  The
   ordered triples (a, b, c) of distinct elements with d(a, c) > d(a, b) +
   d(b, c) + 1e-12 are counted under ``r1:f1:max`` for each psi, from the
   hybrid entropies computed once; ``tests/test_distance_axioms.py`` pins
   six such counts.
"""

import collections
import itertools
import math

from phfe import (
    ALL_PSI,
    all_configs,
    canonicalize,
    complement,
    entropy_distance,
    hybrid,
    measure_value,
    parse_measure,
    su_entropy_d,
    su_entropy_p1,
    su_like_distance,
    weighted_comprehensive,
)
from phfe.distance import distance_from_entropy


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

print("\nwhich distance axioms hold on the 1/4 grid, under r1:f1:max:")
index = {a: k for k, a in enumerate(quarter)}
entropies = [weighted_comprehensive(*hybrid(a, b)) for a, b in pairs]  # once; psi maps the column
for psi in ALL_PSI:
    d = [[math.inf] * len(quarter) for _ in quarter]  # inf diagonal: b = a or b = c never counts
    for (a, b), x in zip(pairs, distance_from_entropy(entropies, psi)):
        d[index[a]][index[b]] = d[index[b]][index[a]] = x
    broken = sum(
        d_ac > d_ab + d_bc + 1e-12
        for i, row in enumerate(d) for k, d_ac in enumerate(row) if i != k
        for d_ab, d_bc in zip(row, d[k])
    )
    n = len(quarter)
    print(f"  psi = {psi.label:<4s} triangle inequality broken by {broken:>4d} of"
          f" {n * (n - 1) * (n - 2)} ordered triples")
empty, full, mixed = (canonicalize(pairs) for pairs in
                      ([(0.0, 1.0)], [(1.0, 1.0)], [(0.0, 0.25), (1.0, 0.75)]))
print(f"  d({empty!r}, {full!r}) = {entropy_distance(empty, full)}, yet both are"
      f" {entropy_distance(empty, mixed):.6f} from {mixed!r}:\n"
      "  the TOPSIS ideals are the farthest pair, and a mix of 0 and 1 sits close to both")
