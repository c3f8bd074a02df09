"""Independent direct-summation reference for the entropy measures and TOPSIS.

Every function here is transcribed straight from the defining formulas,
with plain loops and no imports from the package under test.  The test
suite compares the library against these on exhaustive input grids, so
nothing in this file may be refactored to share code with the library.

Each formula runs in the arithmetic of its inputs: floats give floats,
and ``Decimal`` inputs give Decimals at the precision of the caller's
``decimal`` context, so the same transcription measures the float
engine's rounding error.  Constants that take the inputs' type are built
from it; the rest are ints, which leave every float bit as it was.
"""

import math
from decimal import Decimal


def ln(x):
    return x.ln() if isinstance(x, Decimal) else math.log(x)


def exp(x):
    return x.exp() if isinstance(x, Decimal) else math.exp(x)


def power(base, t):
    """base ** t for base > 0; a Decimal takes exp(t ln base), the cheaper route."""
    return exp(t * ln(base)) if isinstance(base, Decimal) else base**t


def pi_op(p, q):
    """Pairwise probability functional: |p - q|, or the mean when equal."""
    if abs(p - q) <= 1e-12:
        return (p + q) / 2
    return abs(p - q)


def hybrid(a_pairs, b_pairs):
    """Hybrid form of two (value, prob) pair lists as (values, weights).

    Every cross pair contributes (1 - |va - vb|) / 2 with weight
    pi_op(pa, pb); entries are sorted by (value, weight).
    """
    entries = sorted(
        ((1 - abs(va - vb)) / 2, pi_op(pa, pb)) for va, pa in a_pairs for vb, pb in b_pairs
    )
    values = tuple(v for v, _ in entries)
    weights = tuple(w for _, w in entries)
    return values, weights


def r1(x, y, r=1):
    a = abs(1 - 4 * x * y) / 3
    b = abs(4 * (x + y - x * y) - 3) / 3
    r = type(a)(r)  # the exponent in the inputs' arithmetic
    return (1 - a**r) * (1 - b**r)


def r2(x, y):
    two_thirds = type(x)(2) / 3
    a = two_thirds * (min(1 - 2 * x * y, x * y) + 1)
    s = x + y - x * y
    b = two_thirds * (min(2 * s - 1, 2 - 2 * s) + 1)
    return a * b


def f1(x, y):
    d = abs(x - y)
    return 2 * d / (1 + d)


def f2(x, y):
    d = abs(x - y)
    return ln(1 + d) / ln(type(d)(2))


def f3(x, y):
    d = abs(x - y)
    return d * exp(d - 1)


def fuzziness(values, probs, r_fn):
    l = len(values)
    total = type(values[0])(0)
    for i in range(l):
        for j in range(i, l):
            total += r_fn(values[i], values[j]) * pi_op(probs[i], probs[j])
    return 2 * total / (l * (l + 1))


def nonspecificity(values, probs, f_fn):
    l = len(values)
    total = type(values[0])(0)
    for i in range(l):
        for j in range(i, l):
            base = f_fn(values[i], values[j])
            # 0 ** t is 0 for every t > 0; pi_op is always positive here.
            if base != 0:
                total += power(base, pi_op(probs[i], probs[j]))
    return 2 * total / max(2, l * (l - 1))


def theta_max(a, b):
    return max(a, b)


def theta_psum(a, b):
    return a + b - a * b


def theta_bsum(a, b):
    return min(a + b, type(a)(1))


def comprehensive(values, probs, r_fn, f_fn, theta_fn):
    return theta_fn(fuzziness(values, probs, r_fn),
                    nonspecificity(values, probs, f_fn))


def topsis(cells, kinds, r_fn, f_fn, theta_fn):
    """Entropy-weighted TOPSIS over rows of (value, prob) pair lists.

    Returns (raw weights, normalised weights, d_plus, d_minus, closeness).
    The ideals are {1|1} and {0|1}; a criterion of kind "cost" swaps them.
    Every sum runs left to right in an explicit loop: the built-in ``sum``
    compensates rounding from Python 3.12 on.
    """

    def entropy(values, probs):
        return comprehensive(values, probs, r_fn, f_fn, theta_fn)

    def distance(a_pairs, b_pairs):
        return 1 - entropy(*hybrid(a_pairs, b_pairs))

    number = type(cells[0][0][0][0])
    zero, one = number(0), number(1)
    m, n = len(cells), len(kinds)
    raw = []
    for j in range(n):
        total = zero
        for i in range(m):
            total += entropy([v for v, _ in cells[i][j]], [p for _, p in cells[i][j]])
        raw.append(1 - total / m)
    total = zero
    for x in raw:
        total += x
    weights = [x / total for x in raw]
    full, empty = [(one, one)], [(zero, one)]
    d_plus, d_minus, scores = [], [], []
    for row in cells:
        p = q = zero
        for w, cell, kind in zip(weights, row, kinds):
            pis, nis = (full, empty) if kind == "benefit" else (empty, full)
            p += w * distance(cell, pis)
            q += w * distance(cell, nis)
        d_plus.append(p)
        d_minus.append(q)
        scores.append(q / (p + q))
    return raw, weights, d_plus, d_minus, scores
