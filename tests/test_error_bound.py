"""The float engine's rounding error against the oracle run at 40 digits.

``oracle.py`` evaluates its formulas in the arithmetic of its inputs, so fed
the exact values of the float inputs as Decimals under a 40-digit context it
gives the exact sums to far below a float's last unit.  Both sums of an
element and of its two ideal hybrids stay within two units of 2**-52 of
them, for every kernel pair, r1 at r = 1 and r = 2.  The bound is taken
from measurement: the largest errors seen were 1.28 and 1.14 units on 400
elements and then 200 ideal hybrids drawn from ``random.Random("wide")``,
and 1.07 and 1.11 units on this test's draws.
"""

import random
from decimal import Decimal, localcontext

import oracle
from phfe.distance import hybrid
from phfe.entropy import _pairwise, entropy_components
from phfe.verify import random_phfe
from support import KERNEL_PAIRS, cell_sums, oracle_fn

BOUND = 2 * 2.0**-52


def _max_error(engine, lanes, draws):
    """Largest |engine - exact| over ``draws`` and the nine kernel pairs.

    ``engine(*draw, config)`` gives the float (fuzziness, non-specificity) of each lane of
    ``lanes(*draw)``, a (values, weights) list built from the draw's exact Decimal pairs,
    which the oracle sums at 40 digits.
    """
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 40
        for draw in draws:
            exact_lanes = lanes(*([(Decimal(v), Decimal(p)) for v, p in a] for a in draw))
            sums = {}  # by kernel, its measure of every lane: one oracle pass per kernel
            for config in KERNEL_PAIRS:
                fuzz, nonspec = config.fuzziness, config.nonspecificity
                for kernel, measure in ((fuzz, oracle.fuzziness), (nonspec, oracle.nonspecificity)):
                    if kernel not in sums:
                        sums[kernel] = [measure(v, w, oracle_fn(kernel)) for v, w in exact_lanes]
                exact = [s for pair in zip(sums[fuzz], sums[nonspec]) for s in pair]
                got = engine(*draw, config)
                worst = max(worst, *(float(abs(Decimal(g) - e)) for g, e in zip(got, exact)))
    return worst


def test_element_sums_within_the_bound():
    rng = random.Random("error-bound")
    draws = [(random_phfe(rng),) for _ in range(40)]
    assert _max_error(entropy_components, lambda a: [tuple(zip(*a))], draws) <= BOUND


def _cell_lanes(a):
    # The six sums of a TOPSIS cell: its own two, then its two ideal hybrids' four.
    return [tuple(zip(*a))] + [oracle.hybrid(a, [(Decimal(v), Decimal(1))]) for v in (1, 0)]


def test_ideal_hybrid_sums_within_the_bound():
    rng = random.Random("error-bound")
    draws = [(random_phfe(rng),) for _ in range(20)]
    assert _max_error(cell_sums, _cell_lanes, draws) <= BOUND


#: General hybrids sum up to 16 entries here, so their error is larger: at
#: most 3.99 units of 2**-52 over 1000 pairs of elements of up to 4 values
#: from ``random.Random("wide")`` (4.92 over 200 pairs of up to 6 values).
HYBRID_BOUND = 5 * 2.0**-52


def test_general_hybrid_sums_within_the_bound():
    rng = random.Random("error-bound")
    draws = [(random_phfe(rng, 4), random_phfe(rng, 4)) for _ in range(10)]

    def engine(a, b, config):
        return _pairwise(*hybrid(a, b), config.fuzziness, config.nonspecificity)

    assert _max_error(engine, lambda a, b: [oracle.hybrid(a, b)], draws) <= HYBRID_BOUND
