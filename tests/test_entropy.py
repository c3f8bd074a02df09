import pytest

from phfe import (
    DEFAULT_CONFIG,
    EntropyConfig,
    F1,
    F2,
    F3,
    FuzzinessKernel,
    NonSpecificityKernel,
    OutOfRangeError,
    R1,
    R2,
    THETA_BSUM,
    THETA_MAX,
    THETA_PSUM,
    ThetaCombiner,
    UnknownMeasureError,
    all_configs,
    canonicalize,
    complement,
    comprehensive_entropy,
    f_kernel,
    fuzziness_entropy,
    measure_value,
    nonspecificity_entropy,
    parse_measure,
    r_kernel,
    su_entropy_d,
    su_entropy_p2,
)

H1 = canonicalize([(0.7, 0.2), (0.9, 0.8)])
H2 = canonicalize([(0.6, 0.9), (0.9, 0.1)])
H3 = canonicalize([(0.6, 0.1), (0.9, 0.9)])
H4 = canonicalize([(0.4, 0.5), (0.6, 0.5)])
H5 = canonicalize([(0.2, 0.5), (0.8, 0.5)])


class TestKernels:
    def test_r1_peak_only_at_half(self):
        assert r_kernel(R1, 0.5, 0.5) == 1.0
        assert r_kernel(R1, 0.0, 0.0) == 0.0
        assert r_kernel(R1, 1.0, 1.0) == 0.0

    def test_r1_point_value(self):
        # First factor 1 - 1.52/3, second 1 - 0.88/3.
        assert r_kernel(R1, 0.7, 0.9) == pytest.approx(0.348622222222, abs=1e-12)

    def test_r1_zero_one(self):
        assert r_kernel(R1, 0.0, 1.0) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_r1_exponent(self):
        k = FuzzinessKernel("r1", 2.0)
        x = r_kernel(k, 0.7, 0.9)
        assert x == pytest.approx((1 - (1.52 / 3) ** 2) * (1 - (0.88 / 3) ** 2), abs=1e-12)

    def test_r1_requires_r_at_least_one(self):
        with pytest.raises(OutOfRangeError):
            FuzzinessKernel("r1", 0.5)

    def test_r2_matches_r1_for_large_products(self):
        # The two published kernels coincide wherever the value product
        # is at least 1/3; every pair in the first reference table
        # satisfies that, which is why both rows order identically.
        for x, y in [(0.7, 0.9), (0.6, 0.9), (0.9, 0.9), (0.5, 0.7)]:
            assert r_kernel(R2, x, y) == pytest.approx(r_kernel(R1, x, y), abs=1e-12)

    def test_r2_differs_inside_window(self):
        assert r_kernel(R2, 0.5, 0.58) != pytest.approx(r_kernel(R1, 0.5, 0.58), abs=1e-6)

    def test_r2_published_form_peaks_below_one(self):
        # Documented deviation: the published r2 evaluates to 5/6 at the
        # midpoint, so it cannot satisfy the peak axiom.
        assert r_kernel(R2, 0.5, 0.5) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_r2_published_form_not_reflection_symmetric(self):
        # Documented deviation: R(x, y) != R(1-y, 1-x) on part of the square.
        assert r_kernel(R2, 0.5, 0.4) == pytest.approx(0.746666666667, abs=1e-9)
        assert r_kernel(R2, 0.6, 0.5) == pytest.approx(0.808888888889, abs=1e-9)

    def test_f_kernels_zero_iff_equal(self):
        for kernel in (F1, F2, F3):
            assert f_kernel(kernel, 0.37, 0.37) == 0.0
            assert f_kernel(kernel, 0.2, 0.3) > 0.0

    def test_f_kernels_boundary_one(self):
        for kernel in (F1, F2, F3):
            assert f_kernel(kernel, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_f1_point_value(self):
        assert f_kernel(F1, 0.4, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_kernel_domain_checks(self):
        with pytest.raises(OutOfRangeError):
            r_kernel(R1, -0.1, 0.5)
        with pytest.raises(OutOfRangeError):
            f_kernel(F1, 0.5, 1.1)

    def test_unknown_variants(self):
        with pytest.raises(UnknownMeasureError):
            FuzzinessKernel("r3")
        with pytest.raises(UnknownMeasureError):
            NonSpecificityKernel("f9")
        with pytest.raises(UnknownMeasureError):
            ThetaCombiner("mean")


class TestFuzzinessEntropy:
    def test_published_row(self):
        assert fuzziness_entropy(H1) == pytest.approx(0.1513, abs=5e-4)
        assert fuzziness_entropy(H2) == pytest.approx(0.3488, abs=5e-4)
        assert fuzziness_entropy(H3) == pytest.approx(0.1945, abs=5e-4)

    def test_frozen_oracle_values(self):
        assert fuzziness_entropy(H1) == pytest.approx(0.15132444444444446, abs=1e-12)
        assert fuzziness_entropy(H4) == pytest.approx(0.41256296296296296, abs=1e-12)
        assert fuzziness_entropy(H1, FuzzinessKernel("r1", 2.0)) == pytest.approx(
            0.2988973574320988, abs=1e-12
        )
        assert fuzziness_entropy(H4, R2) == pytest.approx(0.3710814814814815, abs=1e-12)
        three = canonicalize([(0.2, 0.3), (0.5, 0.3), (0.9, 0.4)])
        assert fuzziness_entropy(three) == pytest.approx(0.13141333333333335, abs=1e-12)

    def test_half_singleton_is_maximal(self):
        assert fuzziness_entropy(canonicalize([(0.5, 1.0)])) == 1.0

    def test_crisp_singletons_are_zero(self):
        assert fuzziness_entropy(canonicalize([(0.0, 1.0)])) == 0.0
        assert fuzziness_entropy(canonicalize([(1.0, 1.0)])) == 0.0

    def test_split_element_sits_strictly_between(self):
        split = canonicalize([(0.0, 0.5), (1.0, 0.5)])
        value = fuzziness_entropy(split)
        assert value == pytest.approx(r_kernel(R1, 0.0, 1.0) / 6.0, abs=1e-15)
        assert 0.0 < value < 1.0

    def test_diagonal_terms_contribute(self):
        # A singleton reduces to the kernel value itself.
        a = canonicalize([(0.3, 1.0)])
        assert fuzziness_entropy(a) == pytest.approx(r_kernel(R1, 0.3, 0.3), abs=1e-15)

    def test_permutation_invariance(self):
        a = canonicalize([(0.2, 0.3), (0.7, 0.45), (0.4, 0.25)])
        b = canonicalize([(0.7, 0.45), (0.4, 0.25), (0.2, 0.3)])
        assert fuzziness_entropy(a) == fuzziness_entropy(b)

    def test_complement_symmetry(self):
        for a in (H1, H2, H4, H5):
            assert fuzziness_entropy(a) == pytest.approx(
                fuzziness_entropy(complement(a)), abs=1e-12
            )


class TestNonSpecificityEntropy:
    def test_singleton_is_zero(self):
        for g in (0.0, 0.3, 0.5, 1.0):
            for kernel in (F1, F2, F3):
                assert nonspecificity_entropy(canonicalize([(g, 1.0)]), kernel) == 0.0

    def test_split_element_is_maximal(self):
        split = canonicalize([(0.0, 0.5), (1.0, 0.5)])
        for kernel in (F1, F2, F3):
            assert nonspecificity_entropy(split, kernel) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_oracle_values(self):
        assert nonspecificity_entropy(H4, F1) == pytest.approx(0.5773502691896257, abs=1e-12)
        assert nonspecificity_entropy(H4, F2) == pytest.approx(0.5128687998248614, abs=1e-12)
        assert nonspecificity_entropy(H4, F3) == pytest.approx(0.29977623792329555, abs=1e-12)
        assert nonspecificity_entropy(H1, F1) == pytest.approx(0.5172818579717865, abs=1e-12)
        three = canonicalize([(0.2, 0.3), (0.5, 0.3), (0.9, 0.4)])
        assert nonspecificity_entropy(three, F1) == pytest.approx(0.9064424600208044, abs=1e-12)

    def test_spread_discrimination(self):
        for kernel in (F1, F2, F3):
            assert nonspecificity_entropy(H4, kernel) < nonspecificity_entropy(H5, kernel)

    def test_complement_symmetry(self):
        for a in (H1, H2, H4, H5):
            for kernel in (F1, F2, F3):
                assert nonspecificity_entropy(a, kernel) == pytest.approx(
                    nonspecificity_entropy(complement(a), kernel), abs=1e-12
                )


class TestComprehensiveEntropy:
    def test_crisp_element_is_zero_for_every_config(self):
        zero = canonicalize([(0.0, 1.0)])
        for config in all_configs():
            assert comprehensive_entropy(zero, config) == 0.0

    def test_max_combiner_takes_larger_component(self):
        fuzz = fuzziness_entropy(H2)
        ns = nonspecificity_entropy(H2, F1)
        assert comprehensive_entropy(H2) == max(fuzz, ns)

    def test_combiner_ordering(self):
        for a in (H1, H2, H3, H4, H5):
            values = []
            for theta in (THETA_MAX, THETA_PSUM, THETA_BSUM):
                values.append(comprehensive_entropy(a, EntropyConfig(R1, F1, theta)))
            assert values[0] <= values[1] <= values[2]

    def test_theta_boundary_and_commutativity(self):
        for theta in (THETA_MAX, THETA_PSUM, THETA_BSUM):
            assert theta.combine(0.0, 0.0) == 0.0
            assert theta.combine(1.0, 0.0) == 1.0
            assert theta.combine(0.3, 0.6) == theta.combine(0.6, 0.3)

    def test_psum_absorbs_one_exactly(self):
        # Elements holding both extremes have non-specificity exactly 1;
        # the open form x + y - x*y then rounds an ulp below 1 and would
        # break the combiner ordering, so 1 must absorb exactly.
        split = canonicalize([(0.0, 0.003), (1.0, 0.997)])
        assert nonspecificity_entropy(split) == 1.0
        x = fuzziness_entropy(split)
        assert x + 1.0 - x * 1.0 != 1.0  # the hazard the guard removes
        e_max = comprehensive_entropy(split, EntropyConfig(R1, F1, THETA_MAX))
        e_psum = comprehensive_entropy(split, EntropyConfig(R1, F1, THETA_PSUM))
        e_bsum = comprehensive_entropy(split, EntropyConfig(R1, F1, THETA_BSUM))
        assert e_psum == 1.0
        assert e_max <= e_psum <= e_bsum


class TestEntropyConfig:
    def test_default(self):
        assert DEFAULT_CONFIG.label == "r1:f1:max"

    def test_from_string_roundtrip(self):
        config = EntropyConfig.from_string("r1:f2:bsum@r=2")
        assert config.fuzziness.r == 2.0
        assert config.nonspecificity is not None
        assert config.label == "r1:f2:bsum@r=2"
        assert EntropyConfig.from_string("r2:f3:psum").label == "r2:f3:psum"

    def test_from_string_rejects_garbage(self):
        for bad in ("r1", "r1:f1", "r1:f1:mean", "r9:f1:max", "r1:f1:max@r=x"):
            with pytest.raises(UnknownMeasureError):
                EntropyConfig.from_string(bad)

    def test_from_string_rejects_other_measure_ids(self):
        for bad in ("r1@r=2", "f1", "su-d", "r2:f1:max@r=2"):
            with pytest.raises(UnknownMeasureError):
                EntropyConfig.from_string(bad)

    def test_all_configs_covers_grid(self):
        labels = [c.label for c in all_configs()]
        assert len(labels) == 18
        assert len(set(labels)) == 18
        assert "r1:f1:max" in labels and "r2:f3:bsum" in labels


class TestParseMeasure:
    def test_every_form(self):
        assert parse_measure("su-d") is su_entropy_d
        assert parse_measure("r2") == FuzzinessKernel("r2")
        assert parse_measure("r1@r=2") == FuzzinessKernel("r1", 2.0)
        assert parse_measure("f3") == NonSpecificityKernel("f3")
        assert parse_measure("r1:f2:psum@r=3") == EntropyConfig.from_string("r1:f2:psum@r=3")

    def test_explicit_exponent_beats_default(self):
        assert parse_measure("r1", 2.0).r == 2.0
        assert parse_measure("r1@r=3", 2.0).r == 3.0
        assert parse_measure("r1:f1:max", 2.0).fuzziness.r == 2.0
        assert parse_measure("r1:f1:max@r=1", 2.0).fuzziness.r == 1.0
        # r2 has no exponent, so the default does not reach it.
        assert parse_measure("r2:f1:max", 2.0) == EntropyConfig.from_string("r2:f1:max")

    def test_rejects_malformed_ids(self):
        for bad in ("", "r3", "f1@r=2", "su-p1@r=2", "r2@r=3", "r1@r=abc",
                    "r1:f1:max@r=1.2.3", "r1:f1", "r1:f1:max:max", "r1:f4:max"):
            with pytest.raises(UnknownMeasureError):
                parse_measure(bad)
        with pytest.raises(OutOfRangeError):
            parse_measure("r1@r=0.5")

    def test_measure_value_matches_the_measures(self):
        a = canonicalize([(0.3, 0.25), (0.45, 0.5), (0.7, 0.25)])
        config = EntropyConfig.from_string("r2:f3:bsum")
        assert measure_value(parse_measure("r2:f3:bsum"), a) == comprehensive_entropy(a, config)
        assert measure_value(parse_measure("r1@r=2"), a) == fuzziness_entropy(
            a, FuzzinessKernel("r1", 2.0)
        )
        assert measure_value(parse_measure("f2"), a) == nonspecificity_entropy(
            a, NonSpecificityKernel("f2")
        )
        assert measure_value(parse_measure("su-p2"), a) == su_entropy_p2(a)
