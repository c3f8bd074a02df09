"""The float engine's rounding error against a 40-digit decimal reference.

Both sums of an element and of its two ideal hybrids stay within two
units of 2**-52 of the exact values, for every kernel pair, r1 at r = 1
and r = 2.  The bound is taken from measurement: the largest errors seen
were 1.28 and 1.14 units on 400 elements and then 200 ideal hybrids drawn
from ``random.Random("wide")``, and 1.07 and 1.11 units on this test's
draws.
"""

import random
from decimal import Decimal

import decimal_reference as ref
from phfe.distance import hybrid
from phfe.entropy import _pairwise, entropy_components
from phfe.verify import random_phfe
from support import KERNEL_PAIRS, cell_sums

BOUND = 2 * 2.0**-52


def _max_error(engine, reference, count, seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        a = random_phfe(rng)
        for config in KERNEL_PAIRS:
            exact = reference(
                a.values, a.probs, config.fuzziness.variant, config.nonspecificity.variant,
                config.fuzziness.r,
            )
            got = engine(a, config)
            worst = max(worst, *(float(abs(Decimal(g) - e)) for g, e in zip(got, exact)))
    return worst


def test_element_sums_within_the_bound():
    assert _max_error(entropy_components, ref.components, 40, "error-bound") <= BOUND


def _topsis_reference(values, probs, *kernels):
    return (
        ref.components(values, probs, *kernels)
        + ref.hybrid_components(values, probs, [1.0], [1.0], *kernels)
        + ref.hybrid_components(values, probs, [0.0], [1.0], *kernels)
    )


def test_ideal_hybrid_sums_within_the_bound():
    # The six sums of a TOPSIS cell: its own two, then its two ideal hybrids' four.
    assert _max_error(cell_sums, _topsis_reference, 20, "error-bound") <= BOUND


#: General hybrids sum up to 16 entries here, so their error is larger: at
#: most 3.99 units of 2**-52 over 1000 pairs of elements of up to 4 values
#: from ``random.Random("wide")`` (4.92 over 200 pairs of up to 6 values).
HYBRID_BOUND = 5 * 2.0**-52


def test_general_hybrid_sums_within_the_bound():
    rng = random.Random("error-bound")
    worst = 0.0
    for _ in range(10):
        a, b = random_phfe(rng, 4), random_phfe(rng, 4)
        for config in KERNEL_PAIRS:
            exact = ref.hybrid_components(
                a.values, a.probs, b.values, b.probs,
                config.fuzziness.variant, config.nonspecificity.variant, config.fuzziness.r,
            )
            got = _pairwise(*hybrid(a, b), config.fuzziness, config.nonspecificity)
            worst = max(worst, *(float(abs(Decimal(g) - e)) for g, e in zip(got, exact)))
    assert worst <= HYBRID_BOUND
