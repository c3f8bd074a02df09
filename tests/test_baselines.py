import pytest

from phfe import (
    canonicalize,
    complement,
    expectation,
    su_entropy_d,
    su_entropy_p1,
    su_entropy_p2,
    su_like_distance,
    zeta,
)

H1 = canonicalize([(0.7, 0.2), (0.9, 0.8)])
H2 = canonicalize([(0.6, 0.9), (0.9, 0.1)])
H3 = canonicalize([(0.6, 0.1), (0.9, 0.9)])
NARROW = canonicalize([(0.4, 0.5), (0.6, 0.5)])
WIDE = canonicalize([(0.2, 0.5), (0.8, 0.5)])
HALF = canonicalize([(0.5, 1.0)])
SPLIT = canonicalize([(0.0, 0.5), (1.0, 0.5)])


class TestMembershipEntropies:
    def test_published_shannon_row(self):
        assert su_entropy_p1(H1) == pytest.approx(0.551, abs=1e-3)
        assert su_entropy_p1(H2) == pytest.approx(0.921, abs=1e-3)
        assert su_entropy_p1(H3) == pytest.approx(0.519, abs=1e-3)

    def test_published_exponential_row(self):
        assert su_entropy_p2(H1) == pytest.approx(0.466, abs=1e-3)
        assert su_entropy_p2(H2) == pytest.approx(0.903, abs=1e-3)
        assert su_entropy_p2(H3) == pytest.approx(0.430, abs=1e-3)

    def test_maximum_at_half(self):
        assert su_entropy_p1(HALF) == pytest.approx(1.0, abs=1e-12)
        assert su_entropy_p2(HALF) == pytest.approx(1.0, abs=1e-12)

    def test_documented_failure_at_split_element(self):
        # The baselines collapse to zero here while the proposed
        # non-specificity measure reaches its maximum.
        assert su_entropy_p1(SPLIT).hex() == "0x0.0p+0"  # +0.0, not -0.0

    def test_complement_symmetry(self):
        for a in (H1, H2, NARROW, WIDE):
            c = complement(a)
            assert su_entropy_p1(a) == pytest.approx(su_entropy_p1(c), abs=1e-12)
            assert su_entropy_p2(a) == pytest.approx(su_entropy_p2(c), abs=1e-12)


class TestLikeDistance:
    def test_identity(self):
        assert su_like_distance(H1, H1) == 0.0

    def test_degenerate_equal_expectations(self):
        # Both expectations are exactly one half; the like-distance
        # cannot separate the two elements.
        assert expectation(NARROW) == 0.5
        assert expectation(WIDE) == 0.5
        assert su_like_distance(NARROW, WIDE) == 0.0

    def test_extremes(self):
        one = canonicalize([(1.0, 1.0)])
        zero = canonicalize([(0.0, 1.0)])
        assert su_like_distance(one, zero) == 1.0

    def test_symmetric(self):
        assert su_like_distance(H1, H2) == su_like_distance(H2, H1)

    def test_uniform_reduction_is_mean_difference(self):
        a = canonicalize([(0.2, 0.5), (0.6, 0.5)])
        b = canonicalize([(0.1, 0.25), (0.3, 0.25), (0.5, 0.25), (0.7, 0.25)])
        mean_a = (0.2 + 0.6) / 2
        mean_b = (0.1 + 0.3 + 0.5 + 0.7) / 4
        assert su_like_distance(a, b) == pytest.approx(abs(mean_a - mean_b), abs=1e-12)


class TestDistanceEntropy:
    def test_half_singleton(self):
        assert su_entropy_d(HALF) == 1.0

    def test_crisp_singleton(self):
        assert su_entropy_d(canonicalize([(1.0, 1.0)])) == 0.0

    def test_documented_equal_values(self):
        assert su_entropy_d(NARROW) == 1.0
        assert su_entropy_d(WIDE) == 1.0

    def test_complement_symmetry(self):
        for a in (H1, H2, H3):
            assert su_entropy_d(a) == pytest.approx(su_entropy_d(complement(a)), abs=1e-12)

    def test_zeta_contract(self):
        assert zeta(0.0) == 1.0
        assert zeta(0.5) == 0.0
        # Expectations beyond one half clamp instead of going negative.
        assert zeta(0.75) == 0.0
