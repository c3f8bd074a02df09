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
from phfe import all_configs
from phfe.distance import ideal_components
from phfe.entropy import entropy_components
from phfe.verify import random_phfe

BOUND = 2 * 2.0**-52

#: One config per kernel pair, r1 at r = 1 and r = 2: nine pairs.
KERNEL_PAIRS = list(
    {(c.fuzziness, c.nonspecificity): c for r in (1.0, 2.0) for c in all_configs(r)}.values()
)


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


def test_ideal_hybrid_sums_within_the_bound():
    assert _max_error(ideal_components, ref.ideal_components, 20, "error-bound") <= BOUND
