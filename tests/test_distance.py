import pytest

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

ONE = canonicalize([(1.0, 1.0)])
ZERO = canonicalize([(0.0, 1.0)])
A = canonicalize([(0.3, 0.5), (0.7, 0.5)])
B = canonicalize([(0.2, 0.25), (0.5, 0.5), (0.9, 0.25)])


class TestHybrid:
    def test_identical_full_elements(self):
        h = hybrid(ONE, ONE)
        assert h.values == (0.5,)
        assert h.weights == (1.0,)

    def test_maximal_separation(self):
        h = hybrid(ZERO, ONE)
        assert h.values == (0.0,)
        assert h.weights == (1.0,)

    def test_self_hybrid_multiset(self):
        h = hybrid(A, A)
        assert sorted(h.values) == pytest.approx([0.3, 0.3, 0.5, 0.5], abs=1e-15)
        assert h.weights == (0.5, 0.5, 0.5, 0.5)

    def test_cross_size_and_sorting(self):
        h = hybrid(A, B)
        assert len(h) == 6
        assert list(h.values) == sorted(h.values)
        assert all(0.0 <= v <= 0.5 for v in h.values)
        assert all(0.0 < w <= 1.0 for w in h.weights)

    def test_weights_not_renormalized(self):
        h = hybrid(A, B)
        assert sum(h.weights) != pytest.approx(1.0, abs=1e-6)

    def test_sorted_with_symmetric_tie_order(self):
        ab = hybrid(A, B)
        ba = hybrid(B, A)
        assert (ab.values, ab.weights) == (ba.values, ba.weights)


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
        h = hybrid(A, B)
        expected = 1.0 - weighted_comprehensive(h.values, h.weights)
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
