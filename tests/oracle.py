"""Independent direct-summation reference for the entropy measures.

Every function here is transcribed straight from the defining formulas,
with plain loops and no imports from the package under test.  The test
suite compares the library against these on exhaustive input grids, so
nothing in this file may be refactored to share code with the library.
"""

import math


def pi_op(p, q):
    """Pairwise probability functional: |p - q|, or the mean when equal."""
    if abs(p - q) <= 1e-12:
        return (p + q) / 2.0
    return abs(p - q)


def hybrid(a_pairs, b_pairs):
    """Hybrid form of two (value, prob) pair lists as (values, weights).

    Every cross pair contributes (1 - |va - vb|) / 2 with weight
    pi_op(pa, pb); entries are sorted by (value, weight).
    """
    entries = sorted(
        ((1.0 - abs(va - vb)) / 2.0, pi_op(pa, pb)) for va, pa in a_pairs for vb, pb in b_pairs
    )
    values = tuple(v for v, _ in entries)
    weights = tuple(w for _, w in entries)
    return values, weights


def r1(x, y, r=1.0):
    a = 1.0 - (abs(1.0 - 4.0 * x * y) / 3.0) ** r
    b = 1.0 - (abs(4.0 * (x + y - x * y) - 3.0) / 3.0) ** r
    return a * b


def r2(x, y):
    a = (2.0 / 3.0) * (min(1.0 - 2.0 * x * y, x * y) + 1.0)
    s = x + y - x * y
    b = (2.0 / 3.0) * (min(2.0 * s - 1.0, 2.0 - 2.0 * s) + 1.0)
    return a * b


def f1(x, y):
    d = abs(x - y)
    return 2.0 * d / (1.0 + d)


def f2(x, y):
    d = abs(x - y)
    return math.log(1.0 + d) / math.log(2.0)


def f3(x, y):
    d = abs(x - y)
    return d * math.exp(d - 1.0)


def fuzziness(values, probs, r_fn):
    l = len(values)
    total = 0.0
    for i in range(l):
        for j in range(i, l):
            total += r_fn(values[i], values[j]) * pi_op(probs[i], probs[j])
    return 2.0 * total / (l * (l + 1))


def nonspecificity(values, probs, f_fn):
    l = len(values)
    total = 0.0
    for i in range(l):
        for j in range(i, l):
            base = f_fn(values[i], values[j])
            # 0 ** t is 0 for every t > 0; pi_op is always positive here.
            total += 0.0 if base == 0.0 else base ** pi_op(probs[i], probs[j])
    return 2.0 * total / max(2, l * (l - 1))


def theta_max(a, b):
    return max(a, b)


def theta_psum(a, b):
    return a + b - a * b


def theta_bsum(a, b):
    return min(a + b, 1.0)


def comprehensive(values, probs, r_fn, f_fn, theta_fn):
    return theta_fn(fuzziness(values, probs, r_fn),
                    nonspecificity(values, probs, f_fn))
