"""Walkthrough: from two elements to a distance via the hybrid form.

Run from the repository root:

    python demos/02_entropy_based_distances.py
"""

from phfe import (
    ALL_PSI,
    canonicalize,
    entropy_distance,
    hybrid,
    weighted_comprehensive,
)

a = canonicalize([(0.3, 0.5), (0.7, 0.5)])
b = canonicalize([(0.2, 0.25), (0.5, 0.5), (0.9, 0.25)])

print("a =", repr(a))
print("b =", repr(b))

# Step 1: cross every value of a with every value of b.  Each cross pair
# contributes (1 - |va - vb|) / 2, weighted by the pairwise probability
# functional.  Identical values land on 0.5, remote values near 0.
values, weights = hybrid(a, b)
print("\nhybrid form (value | weight, one entry per cross pair):")
for value, weight in zip(values, weights):
    print(f"  {value:.4f} | {weight:.4f}")
print("weights sum to", f"{sum(weights):.4f}", "(no renormalisation happens)")

# Step 2: the comprehensive entropy of that weighted list is 1 exactly
# when the hybrid collapses to {0.5|1}, i.e. when the elements agree.
ec = weighted_comprehensive(values, weights)
print(f"\ncomprehensive entropy of the hybrid: {ec:.4f}")

# Step 3: push through a strictly increasing generator and renormalise.
print("\ndistances under the four generators:")
for psi in ALL_PSI:
    print(f"  psi={psi.label:4s} distance {entropy_distance(a, b, psi):.4f}")

print("\nsanity checks:")
one = canonicalize([(1.0, 1.0)])
zero = canonicalize([(0.0, 1.0)])
print(f"  distance({one!r}, {zero!r}) = {entropy_distance(one, zero):.4f}")
print(f"  distance({one!r}, {one!r})  = {entropy_distance(one, one):.4f}")
print(f"  symmetry: {entropy_distance(a, b) == entropy_distance(b, a)}")

# A property of the published construction worth knowing: for elements
# with more than one value, the self-hybrid contains entries below 0.5,
# so the self-distance stays positive.
print(f"  self-distance of the two-valued a: {entropy_distance(a, a):.4f} (positive by construction)")
