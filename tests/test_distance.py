import copy
import math
import pickle
import random

import pytest

import oracle
import phfe.distance
from phfe import (
    ALL_PSI,
    PSI_EXP_TILT,
    PSI_HARMONIC,
    PSI_IDENTITY,
    PSI_SQUARE,
    PsiFunction,
    UnknownMeasureError,
    all_configs,
    canonicalize,
    entropy_distance,
    hybrid,
    weighted_comprehensive,
)
from phfe.distance import hybrid_components, ideal_components
from phfe.entropy import F1, F2, F3, _pairwise
from phfe.verify import random_phfe

ONE = canonicalize([(1.0, 1.0)])
ZERO = canonicalize([(0.0, 1.0)])
A = canonicalize([(0.3, 0.5), (0.7, 0.5)])
B = canonicalize([(0.2, 0.25), (0.5, 0.5), (0.9, 0.25)])


class TestHybrid:
    def test_identical_full_elements(self):
        values, weights = hybrid(ONE, ONE)
        assert values == (0.5,)
        assert weights == (1.0,)

    def test_maximal_separation(self):
        values, weights = hybrid(ZERO, ONE)
        assert values == (0.0,)
        assert weights == (1.0,)

    def test_self_hybrid_multiset(self):
        values, weights = hybrid(A, A)
        assert sorted(values) == pytest.approx([0.3, 0.3, 0.5, 0.5], abs=1e-15)
        assert weights == (0.5, 0.5, 0.5, 0.5)

    def test_cross_size_and_sorting(self):
        values, weights = hybrid(A, B)
        assert len(values) == 6
        assert list(values) == sorted(values)
        assert all(0.0 <= v <= 0.5 for v in values)
        assert all(0.0 < w <= 1.0 for w in weights)

    def test_weights_not_renormalized(self):
        _, weights = hybrid(A, B)
        assert sum(weights) != pytest.approx(1.0, abs=1e-6)

    def test_sorted_with_symmetric_tie_order(self):
        assert hybrid(A, B) == hybrid(B, A)

    @pytest.mark.parametrize(
        "a, b",
        [
            (canonicalize([(0.0, 0.5), (1e-17, 0.5)]), ONE),
            (canonicalize([(0.0, 0.3), (1e-17, 0.7)]), ONE),
            (canonicalize([(0.0, 0.3), (1e-17, 0.7)]), ZERO),
            (A, A),
            (A, B),
            (B, canonicalize([(0.2, 0.25), (0.8, 0.5), (0.5, 0.25)])),
        ],
        ids=["tied-values-and-weights", "tied-values", "near-zero", "self", "cross", "mirror"],
    )
    def test_equals_the_sorted_cross_product(self, a, b):
        assert hybrid(a, b) == oracle.hybrid(list(a), list(b))

    def test_random_pairs_equal_the_sorted_cross_product(self):
        rng = random.Random("hybrid")
        for _ in range(500):
            a, b = random_phfe(rng), random_phfe(rng)
            assert hybrid(a, b) == oracle.hybrid(list(a), list(b))
            assert hybrid(a, b) == hybrid(b, a)

    def test_ideal_hybrids_share_nonspecificity_up_to_rounding(self):
        # The hybrids of a with {1|1} and with {0|1} carry the values v/2 and
        # (1 - v)/2 under the same weights, so every pairwise gap, and with it
        # the non-specificity, is equal in exact arithmetic.  Floats round the
        # two sums apart; 3000 draws of this stream differ by at most 4 ulps.
        rng = random.Random(1)
        for _ in range(3000):
            a = random_phfe(rng)
            full, empty = hybrid(a, ONE), hybrid(a, ZERO)
            for kernel in (F1, F2, F3):
                x = _pairwise(*full, None, kernel)[1]
                y = _pairwise(*empty, None, kernel)[1]
                assert abs(x - y) <= 8 * math.ulp(max(x, y)), (a, kernel.label, x, y)


def _hex(sums):
    return [x.hex() for x in sums]


#: One config per kernel pair, r1 at r = 1 and r = 2.
KERNEL_PAIRS = list(
    {(c.fuzziness, c.nonspecificity): c for r in (1.0, 2.0) for c in all_configs(r)}.values()
)


class TestIdealComponents:
    """ideal_components builds no hybrid, yet must equal the sorted hybrids' sums bit for bit."""

    def test_random_elements_equal_the_sorted_hybrids(self, monkeypatch):
        built = []
        monkeypatch.setattr(phfe.distance, "hybrid", lambda a, b: built.append(b) or hybrid(a, b))
        rng = random.Random("ideal")
        for _ in range(300):
            a = random_phfe(rng)
            for config in KERNEL_PAIRS:
                expected = hybrid_components(a, ONE, config) + hybrid_components(a, ZERO, config)
                del built[:]
                assert _hex(ideal_components(a, config)) == _hex(expected), (a, config.label)
                assert built == []  # grid values never collide under 1 - v: the in-place path

    @pytest.mark.parametrize(
        "a",
        [
            canonicalize([(1e-17, 0.5), (2e-17, 0.5)]),
            canonicalize([(1e-17, 0.3), (2e-17, 0.7)]),
            canonicalize([(0.0, 0.2), (1e-17, 0.3), (2e-17, 0.1), (0.4, 0.4)]),
        ],
        ids=["equal-weights", "unequal-weights", "with-zero"],
    )
    def test_values_colliding_under_one_minus_v_take_the_general_path(self, a, monkeypatch):
        assert 1.0 - 1e-17 == 1.0 - 2e-17 == 1.0
        built = []
        monkeypatch.setattr(phfe.distance, "hybrid", lambda a, b: built.append(b) or hybrid(a, b))
        for config in KERNEL_PAIRS:
            del built[:]
            got = ideal_components(a, config)
            assert built == [ONE, ZERO]
            expected = hybrid_components(a, ONE, config) + hybrid_components(a, ZERO, config)
            assert _hex(got) == _hex(expected), config.label


class TestPsiFunctions:
    def test_endpoints(self):
        for psi in ALL_PSI:
            assert psi(0.0) == 0.0
            assert psi(1.0) == 1.0

    def test_strictly_increasing_sample(self):
        grid = [i / 20 for i in range(21)]
        for psi in ALL_PSI:
            values = [psi(z) for z in grid]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_variants(self):
        assert PSI_SQUARE(0.5) == 0.25
        assert PSI_HARMONIC(0.5) == pytest.approx(2 / 3)
        assert PSI_EXP_TILT(0.5) == pytest.approx(0.5 * pow(2.718281828459045, -0.5))

    def test_unknown_variant(self):
        with pytest.raises(UnknownMeasureError):
            PsiFunction("cube")

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_generators_survive_copies(self, copier):
        copies = copier(ALL_PSI)
        assert copies == ALL_PSI
        assert [hash(p) for p in copies] == [hash(p) for p in ALL_PSI]
        assert [p(0.3) for p in copies] == [p(0.3) for p in ALL_PSI]


class TestEntropyDistance:
    def test_identical_full_elements_have_zero_distance(self):
        for config in all_configs():
            d = entropy_distance(ONE, ONE, PSI_IDENTITY, config)
            if config.fuzziness.variant == "r1":
                assert d == 0.0
            else:
                # Documented deviation: the published r2 kernel peaks at
                # 5/6 instead of 1, so the self-hybrid {0.5|1} keeps the
                # distance at exactly 1/6 under every r2 configuration.
                assert d == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_opposite_crisp_elements_have_unit_distance(self):
        # The hybrid {0|1} has entropy zero, so the distance is one for
        # every generator, not just the identity.
        for psi in ALL_PSI:
            assert entropy_distance(ZERO, ONE, psi) == 1.0

    def test_identity_psi_is_one_minus_entropy(self):
        expected = 1.0 - weighted_comprehensive(*hybrid(A, B))
        assert entropy_distance(A, B) == pytest.approx(expected, abs=1e-15)

    def test_symmetry_is_bit_exact(self):
        pairs = [(A, B), (A, ONE), (B, ZERO)]
        for psi in ALL_PSI:
            for x, y in pairs:
                assert entropy_distance(x, y, psi) == entropy_distance(y, x, psi)

    def test_bounded(self):
        for psi in ALL_PSI:
            for config in all_configs():
                d = entropy_distance(A, B, psi, config)
                assert 0.0 <= d <= 1.0

    def test_singleton_reflexivity(self):
        for g in (0.0, 0.25, 0.5, 1.0):
            s = canonicalize([(g, 1.0)])
            for psi in ALL_PSI:
                assert entropy_distance(s, s, psi) == 0.0

    def test_documented_multielement_self_distance_positive(self):
        # Property of the published construction: the self-hybrid does
        # not collapse to {0.5|1}, so the distance stays positive.
        assert entropy_distance(A, A) > 0.0

    def test_psi_variants_agree_on_zero(self):
        flags = {entropy_distance(A, B, psi) == 0.0 for psi in ALL_PSI}
        assert len(flags) == 1
