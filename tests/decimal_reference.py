"""Forty-digit reference for the entropy sums, to measure the float engine's error.

Every kernel and sum is transcribed from its defining formula and
evaluated in ``decimal`` arithmetic at 40 significant digits, starting
from the exact values of the float inputs.  Only the standard library is
used and nothing is imported from the package under test, so the
difference between the library's float result and these numbers is the
library's rounding error.
"""

from decimal import Decimal, localcontext

PREC = 40

_ONE, _TWO, _THREE, _FOUR = map(Decimal, (1, 2, 3, 4))


def pi_op(p, q):
    """Pairwise probability functional: |p - q|, or the mean when equal."""
    if abs(p - q) <= Decimal("1e-12"):
        return (p + q) / _TWO
    return abs(p - q)


def r1(x, y, r=1):
    a = _ONE - (abs(_ONE - _FOUR * x * y) / _THREE) ** r
    b = _ONE - (abs(_FOUR * (x + y - x * y) - _THREE) / _THREE) ** r
    return a * b


def r2(x, y, r=1):
    a = _TWO / _THREE * (min(_ONE - _TWO * x * y, x * y) + _ONE)
    s = x + y - x * y
    b = _TWO / _THREE * (min(_TWO * s - _ONE, _TWO - _TWO * s) + _ONE)
    return a * b


def f1(x, y):
    d = abs(x - y)
    return _TWO * d / (_ONE + d)


def f2(x, y):
    return (_ONE + abs(x - y)).ln() / _TWO.ln()


def f3(x, y):
    d = abs(x - y)
    return d * (d - _ONE).exp()


R_KERNELS = {"r1": r1, "r2": r2}
F_KERNELS = {"f1": f1, "f2": f2, "f3": f3}


def components(values, weights, r_name, f_name, r=1):
    """(fuzziness, non-specificity) of a weighted value list, as Decimals.

    ``values`` and ``weights`` are floats or Decimals; both sums run over i <= j.
    """
    r_fn, f_fn = R_KERNELS[r_name], F_KERNELS[f_name]
    with localcontext() as ctx:
        ctx.prec = PREC
        xs, ws = [Decimal(v) for v in values], [Decimal(w) for w in weights]
        r = Decimal(r)
        l = len(xs)
        fuzz = ns = Decimal(0)
        for i in range(l):
            for j in range(i, l):
                w = pi_op(ws[i], ws[j])
                fuzz += r_fn(xs[i], xs[j], r) * w
                base = f_fn(xs[i], xs[j])
                # Zero to a positive power is zero; exp(w ln base) is base ** w at half the cost.
                if base > 0:
                    ns += (w * base.ln()).exp()
        return _TWO * fuzz / (l * (l + 1)), _TWO * ns / max(2, l * (l - 1))


def ideal_components(values, probs, r_name, f_name, r=1):
    """components of the hybrids of an element with {1|1}, then with {0|1}.

    Against a one-value ideal u the hybrid has the values (1 - |v - u|) / 2
    under the weights pi(p, 1); here both are exact.
    """
    sums = []
    for u in (1, 0):
        with localcontext() as ctx:
            ctx.prec = PREC
            hybrid_values = [(_ONE - abs(Decimal(v) - u)) / _TWO for v in values]
            hybrid_weights = [pi_op(Decimal(p), _ONE) for p in probs]
        sums += components(hybrid_values, hybrid_weights, r_name, f_name, r)
    return tuple(sums)
