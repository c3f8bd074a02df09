import copy
import itertools
import math
import pickle
import random

import pytest

import oracle
from phfe import (
    ALL_PSI,
    DEFAULT_CONFIG,
    EmptyInputError,
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
    fuzziness_entropy,
    measure_value,
    nonspecificity_entropy,
    parse_measure,
    pi,
    su_entropy_d,
    su_entropy_p2,
    weighted_comprehensive,
)
from phfe.distance import _PSI
from phfe.elements import _pi_column, _pi_fast
from phfe.entropy import _FUZZINESS, _NONSPECIFICITY, _STEPS, _THETA, _pairwise, _pairwise_columns
from support import configs_at, oracle_fn

H1 = canonicalize([(0.7, 0.2), (0.9, 0.8)])
H2 = canonicalize([(0.6, 0.9), (0.9, 0.1)])
H3 = canonicalize([(0.6, 0.1), (0.9, 0.9)])
H4 = canonicalize([(0.4, 0.5), (0.6, 0.5)])
H5 = canonicalize([(0.2, 0.5), (0.8, 0.5)])


class TestKernels:
    def test_r1_peak_only_at_half(self):
        assert _FUZZINESS["r1"](0.5, 0.5, 1.0) == 1.0
        assert _FUZZINESS["r1"](0.0, 0.0, 1.0) == 0.0
        assert _FUZZINESS["r1"](1.0, 1.0, 1.0) == 0.0

    def test_r1_point_value(self):
        # First factor 1 - 1.52/3, second 1 - 0.88/3.
        assert _FUZZINESS["r1"](0.7, 0.9, 1.0) == pytest.approx(0.348622222222, abs=1e-12)

    def test_r1_zero_one(self):
        assert _FUZZINESS["r1"](0.0, 1.0, 1.0) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_r1_exponent(self):
        x = _FUZZINESS["r1"](0.7, 0.9, 2.0)
        assert x == pytest.approx((1 - (1.52 / 3) ** 2) * (1 - (0.88 / 3) ** 2), abs=1e-12)

    def test_r1_equals_its_power_form_bit_for_bit(self):
        # r1 skips the power at r = 1, where t ** 1.0 is t exactly; any other r keeps it.
        def power_form(x, y, r):
            prod = x * y
            t1 = abs(1.0 - 4.0 * prod) / 3.0
            t2 = abs(4.0 * (x + y - prod) - 3.0) / 3.0
            return (1.0 - t1**r) * (1.0 - t2**r)

        rng = random.Random("r1")
        points = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
        points += [(rng.random(), rng.random()) for _ in range(5000)]
        r1 = _FUZZINESS["r1"]
        for r in (1.0, 2.0, 1.0000001):
            assert [r1(x, y, r).hex() for x, y in points] == [
                power_form(x, y, r).hex() for x, y in points
            ], r
        assert any(r1(x, y, 1.0000001) != r1(x, y, 1.0) for x, y in points)

    def test_r1_requires_r_at_least_one(self):
        for r in (0.5, float("inf"), float("nan"), 1e999):  # at least one, and finite
            with pytest.raises(OutOfRangeError):
                FuzzinessKernel("r1", r)

    def test_r2_matches_r1_for_large_products(self):
        # The two published kernels coincide wherever the value product
        # is at least 1/3; every pair in the first reference table
        # satisfies that, which is why both rows order identically.
        r1, r2 = _FUZZINESS["r1"], _FUZZINESS["r2"]
        for x, y in [(0.7, 0.9), (0.6, 0.9), (0.9, 0.9), (0.5, 0.7)]:
            assert r2(x, y, 1.0) == pytest.approx(r1(x, y, 1.0), abs=1e-12)

    def test_r2_differs_inside_window(self):
        r1, r2 = _FUZZINESS["r1"], _FUZZINESS["r2"]
        assert r2(0.5, 0.58, 1.0) != pytest.approx(r1(0.5, 0.58, 1.0), abs=1e-6)

    def test_r2_published_form_peaks_below_one(self):
        # Documented deviation: the published r2 evaluates to 5/6 at the
        # midpoint, so it cannot satisfy the peak axiom.
        assert _FUZZINESS["r2"](0.5, 0.5, 1.0) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_r2_published_form_not_reflection_symmetric(self):
        # Documented deviation: R(x, y) != R(1-y, 1-x) on part of the square.
        assert _FUZZINESS["r2"](0.5, 0.4, 1.0) == pytest.approx(0.746666666667, abs=1e-9)
        assert _FUZZINESS["r2"](0.6, 0.5, 1.0) == pytest.approx(0.808888888889, abs=1e-9)

    def test_f_kernels_zero_iff_equal(self):
        for kernel in _NONSPECIFICITY.values():
            assert kernel(0.37, 0.37) == 0.0
            assert kernel(0.2, 0.3) > 0.0

    def test_f_kernels_boundary_one(self):
        for kernel in _NONSPECIFICITY.values():
            assert kernel(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_f1_point_value(self):
        assert _NONSPECIFICITY["f1"](0.4, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-12)

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
        assert value == pytest.approx(_FUZZINESS["r1"](0.0, 1.0, 1.0) / 6.0, abs=1e-15)
        assert 0.0 < value < 1.0

    def test_diagonal_terms_contribute(self):
        # A singleton reduces to the kernel value itself.
        a = canonicalize([(0.3, 1.0)])
        assert fuzziness_entropy(a) == pytest.approx(_FUZZINESS["r1"](0.3, 0.3, 1.0), abs=1e-15)

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


#: Signed zeros, the smallest subnormal, 0.5 and its next float, the floats
#: either side of 1, infinities and nan: where a rewritten max or min can slip.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52,
    math.inf, -math.inf, math.nan,
)


#: The 121 ordered pairs of EDGE_FLOATS, as one column of firsts and one of seconds.
EDGE_PAIRS = list(itertools.product(EDGE_FLOATS, repeat=2))
EDGE_XS, EDGE_YS = zip(*EDGE_PAIRS)


def _same_bits(got, want):
    return math.isnan(want) == math.isnan(got) and (math.isnan(want) or got.hex() == want.hex())


def _mismatches(combine, scalar_form):
    """Ordered pairs of EDGE_FLOATS where the column ``combine``, called once on all of them,
    differs from ``scalar_form`` in any bit."""
    got = combine(EDGE_XS, EDGE_YS)
    assert len(got) == len(EDGE_PAIRS)
    return [
        (x, y, g, want)
        for (x, y), g in zip(EDGE_PAIRS, got)
        if not _same_bits(g, want := scalar_form(x, y))
    ]


class TestCombinersMatchTheBuiltins:
    """Each combiner runs once over a column of pairs; the max and bsum combiners avoid the
    built-in max and min, and every entry must be what the scalar form returns, bit for bit."""

    def test_max_is_builtin_max(self):
        assert _mismatches(_THETA["max"], max) == []

    def test_bsum_is_min_of_sum_and_one(self):
        assert _mismatches(_THETA["bsum"], lambda x, y: min(x + y, 1.0)) == []

    def test_psum_is_the_guarded_probabilistic_sum(self):
        def guarded(x, y):
            return 1.0 if x == 1.0 or y == 1.0 else x + y - x * y

        assert _mismatches(_THETA["psum"], guarded) == []

    def test_a_max_that_prefers_the_second_on_ties_is_caught(self):
        # It differs wherever neither argument is larger: at the signed zeros and at nan.
        bad = _mismatches(lambda xs, ys: [x if x > y else y for x, y in zip(xs, ys)], max)
        assert [(x.hex(), y.hex()) for x, y, _, _ in bad if x == x and y == y] == [
            ("0x0.0p+0", "-0x0.0p+0"),
            ("-0x0.0p+0", "0x0.0p+0"),
        ]
        assert len(bad) == 2 + 2 * (len(EDGE_FLOATS) - 1)

    def test_scalar_combine_is_the_column_of_one(self):
        for theta in (THETA_MAX, THETA_PSUM, THETA_BSUM):
            for (x, y), e in zip(EDGE_PAIRS, theta._fn(EDGE_XS, EDGE_YS)):
                assert _same_bits(theta.combine(x, y), e)


class TestGeneratorsMatchTheirFormulas:
    """Each generator runs once over the column of EDGE_FLOATS; every entry must be its
    scalar formula bit for bit, and a call on one number the column of one."""

    FORMULAS = {
        "id": lambda z: z,
        "sq": lambda z: z * z,
        "harm": lambda z: 2.0 * z / (1.0 + z),
        "exp": lambda z: z * math.exp(z - 1.0),
    }

    @pytest.mark.parametrize("psi", ALL_PSI, ids=lambda psi: psi.label)
    def test_column_is_the_scalar_formula(self, psi):
        assert set(self.FORMULAS) == set(_PSI)
        column = _PSI[psi.variant](EDGE_FLOATS)
        assert len(column) == len(EDGE_FLOATS)
        for z, got in zip(EDGE_FLOATS, column):
            assert _same_bits(got, self.FORMULAS[psi.variant](z)), z
            assert _same_bits(psi(z), got), z


class TestWeightedComprehensiveRefusal:
    """The engine's public list entry refuses what its sums are not defined on."""

    @pytest.mark.parametrize(
        "values, weights, error, message",
        [
            ([], [], EmptyInputError, "at least one entry"),
            ([0.2, 0.2], [0.0, 0.0], OutOfRangeError, "weight 0.0 outside (0, 1]"),
            ([0.2, 0.2], [-0.1, -0.1], OutOfRangeError, "weight -0.1 outside"),
            ([0.2], [0.5, 0.5], OutOfRangeError, "1 values but 2 weights"),
            ([0.2, 0.3], [float("nan"), 0.5], OutOfRangeError, "weight nan outside"),
            ([0.2, 0.3], [0.5, 1.5], OutOfRangeError, "weight 1.5 outside"),
            ([0.2, 1.5], [0.5, 0.5], OutOfRangeError, "membership value 1.5 outside [0, 1]"),
            ([-0.0001, 0.5], [0.5, 0.5], OutOfRangeError, "membership value -0.0001 outside"),
            ([float("nan")], [1.0], OutOfRangeError, "membership value nan outside"),
        ],
    )
    def test_refusal_type_and_message(self, values, weights, error, message):
        with pytest.raises(error) as info:
            weighted_comprehensive(values, weights)
        assert message in str(info.value)

    def test_closed_ends_are_accepted(self):
        ends = [0.0, 1.0], [1.0, 1.0]
        assert weighted_comprehensive(*ends) == max(_pairwise(*ends, R1, F1))
        assert weighted_comprehensive([0.5], [1.0]) == 1.0


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

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 1.0000001, 1234567.5])
    def test_labels_round_trip(self, r):
        measures = [FuzzinessKernel("r1", r), R2, F1, F2, F3, *configs_at(r)]
        for measure in measures:
            assert parse_measure(measure.label) == measure, measure.label

    def test_short_exponents_keep_six_digit_labels(self):
        labels = [FuzzinessKernel("r1", r).label for r in (1.5, 2.0, 3.0)]
        assert labels == ["r1@r=1.5", "r1@r=2", "r1@r=3"]

    def test_only_r1_takes_an_exponent(self):
        with pytest.raises(OutOfRangeError):
            FuzzinessKernel("r2", 3.0)
        assert FuzzinessKernel("r2", 1.0) == R2

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_configs_survive_copies(self, copier):
        configs = configs_at(2.0)
        copies = copier(configs)
        assert copies == configs
        assert [hash(c) for c in copies] == [hash(c) for c in configs]
        a = canonicalize([(0.2, 0.3), (0.7, 0.7)])
        for config, twin in zip(configs, copies):
            assert comprehensive_entropy(a, twin) == comprehensive_entropy(a, config)


class TestParseMeasure:
    def test_every_form(self):
        assert parse_measure("su-d") is su_entropy_d
        assert parse_measure("r2") == FuzzinessKernel("r2")
        assert parse_measure("r1@r=2") == FuzzinessKernel("r1", 2.0)
        assert parse_measure("f3") == NonSpecificityKernel("f3")
        assert parse_measure("r1:f2:psum@r=3") == EntropyConfig.from_string("r1:f2:psum@r=3")

    def test_accepts_exactly_the_table_ids(self):
        decoys = ["r0", "r3", "f0", "f4", "min", "sum", "su-p3", "R1", "F1"]
        fuzz, ns, theta = [*_FUZZINESS, *decoys], [*_NONSPECIFICITY, *decoys], [*_THETA, *decoys]
        singles = {*fuzz, *ns, *theta, "su-p1", "su-p2", "su-d"}
        assert {t for t in singles if _parses(t)} == {
            *_FUZZINESS, *_NONSPECIFICITY, "su-p1", "su-p2", "su-d"
        }
        triples = {f"{f}:{n}:{t}" for f in fuzz for n in ns for t in theta}
        assert {t for t in triples if _parses(t)} == {c.label for c in all_configs()}

    def test_rejects_malformed_ids(self):
        for bad in ("", "r3", "f1@r=2", "su-p1@r=2", "r2@r=3", "r1@r=abc",
                    "r1:f1:max@r=1.2.3", "r1:f1", "r1:f1:max:max", "r1:f4:max"):
            with pytest.raises(UnknownMeasureError):
                parse_measure(bad)
        for bad in ("r1@r=0.5", "r1@r=1e999", "r1:f1:max@r=1e999", "r1@r=inf", "r1@r=nan"):
            with pytest.raises(OutOfRangeError):
                parse_measure(bad)

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


def _parses(text: str) -> bool:
    try:
        parse_measure(text)
    except UnknownMeasureError:
        return False
    return True


# The pairwise engine adds the diagonal term j == i as r(v, v) * w: exact
# because pi(w, w) is w and every f kernel is exactly 0 at (v, v).

_EDGE_WEIGHTS = [1.0, 0.5, 1.0 / 3.0, 0.1, 1e-12, 1e-300, 2.2250738585072014e-308, 5e-324, 1e-310]


def _weighted_lists(rng: random.Random, tied: bool):
    """(values, weights) lists like elements and hybrids; ``tied`` repeats entries."""
    for length in range(1, 9):
        pool = [0.0, 1.0, 0.5, 0.25, 1e-17] if tied else []
        values = [rng.choice(pool) if pool and rng.random() < 0.6 else rng.random()
                  for _ in range(length)]
        weights = [rng.choice([0.5, 0.25, 0.5 + 1e-13]) if tied else rng.uniform(1e-9, 1.0)
                   for _ in range(length)]
        yield sorted(values), weights


class TestPairwiseDiagonal:
    def test_pi_of_equal_weights_is_the_weight(self):
        rng = random.Random(11)
        for w in _EDGE_WEIGHTS + [rng.uniform(1e-9, 1.0) for _ in range(2000)]:
            assert _pi_fast(w, w) == w and _pi_fast(w, w).hex() == w.hex()
            assert pi(w, w) == w

    def test_zero_to_a_weight_adds_nothing(self):
        # The loops add f(v, v') ** w with no test for a zero base: 0.0 ** w is
        # +0.0 for every weight w > 0, and adding +0.0 keeps a total's bits.
        rng = random.Random(13)
        for w in _EDGE_WEIGHTS + [rng.uniform(1e-9, 1.0) for _ in range(2000)]:
            zero = 0.0**w
            assert zero.hex() == "0x0.0p+0"
            for total in (0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 1e300):
                assert (total + zero).hex() == total.hex()

    @pytest.mark.parametrize("name", sorted(_NONSPECIFICITY))
    def test_f_kernels_vanish_on_the_diagonal(self, name):
        rng = random.Random(12)
        for v in [0.0, 1.0, 0.5, 1e-17, 5e-324, 1.0 - 2**-53] + [rng.random() for _ in range(2000)]:
            assert _NONSPECIFICITY[name](v, v) == 0.0

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
    @pytest.mark.parametrize("r", [1.0, 1.7, 2.0])
    def test_matches_the_full_double_sum(self, r, tied):
        # The oracle evaluates the diagonal like every other pair and tests for a zero base.
        fuzz_kernels = [FuzzinessKernel("r1", r), R2]
        ns_kernels = [F1, F2, F3]
        rng = random.Random(f"{r}:{tied}")
        for _ in range(20):
            for values, weights in _weighted_lists(rng, tied):
                for fuzz in fuzz_kernels:
                    for nonspec in ns_kernels:
                        r_fn, f_fn = oracle_fn(fuzz), oracle_fn(nonspec)
                        got = _pairwise(values, weights, fuzz, nonspec)
                        want = (oracle.fuzziness(values, weights, r_fn),
                                oracle.nonspecificity(values, weights, f_fn))
                        assert [x.hex() for x in got] == [x.hex() for x in want]
        # The batched pass equals one _pairwise call per lane on unrelated lanes of one length.
        for _ in range(10):
            for lanes in zip(*(_weighted_lists(rng, tied) for _ in range(3))):
                values, weights = ([list(col) for col in zip(*half)] for half in zip(*lanes))
                for fuzz in fuzz_kernels:
                    for nonspec in ns_kernels:
                        got = _pairwise_columns(values, weights, fuzz, nonspec)
                        want = zip(*(_pairwise(*lane, fuzz, nonspec) for lane in lanes))
                        assert [[x.hex() for x in s] for s in got] == [
                            [x.hex() for x in s] for s in want]


#: Membership values where the kernels' branches and roundings meet.
_EDGE_VALUES = [0.0, 1.0, 0.5, 0.25, 0.75, 1.0 / 3.0, 2.0 / 3.0, 1e-17, 5e-324, 1.0 - 2**-53]


def _kernel_points(seed):
    """(totals, xs, ys, ws) columns: every ordered pair of _EDGE_VALUES, then 2000 random
    pairs, under edge and random weights and running totals."""
    rng = random.Random(seed)
    pairs = list(itertools.product(_EDGE_VALUES, repeat=2))
    pairs += [(rng.random(), rng.random()) for _ in range(2000)]
    xs, ys = map(list, zip(*pairs))
    ws = [_EDGE_WEIGHTS[k % len(_EDGE_WEIGHTS)] if k % 3 else rng.uniform(1e-9, 1.0)
          for k in range(len(pairs))]
    totals = [0.0 if k % 4 == 0 else rng.uniform(0.0, 10.0) for k in range(len(pairs))]
    return totals, xs, ys, ws


class TestColumnKernelTwins:
    """Each column kernel of the batched pass writes its scalar twin inline; every entry must
    be the scalar form's running sum, bit for bit."""

    @pytest.mark.parametrize("r", [1.0, 1.7, 2.0])
    def test_r1_step_is_the_scalar_kernel(self, r):
        totals, xs, ys, ws = _kernel_points(f"r1:{r}")
        got = _STEPS["r1"](totals, xs, ys, ws, r)
        want = [t + _FUZZINESS["r1"](x, y, r) * w for t, x, y, w in zip(totals, xs, ys, ws)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_r2_step_is_the_scalar_kernel(self):
        totals, xs, ys, ws = _kernel_points("r2")
        got = _STEPS["r2"](totals, xs, ys, ws, 1.0)
        want = [t + _FUZZINESS["r2"](x, y, 1.0) * w for t, x, y, w in zip(totals, xs, ys, ws)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("name", sorted(_NONSPECIFICITY))
    def test_f_step_is_the_scalar_kernel(self, name):
        totals, xs, ys, ws = _kernel_points(name)
        got = _STEPS[name](totals, xs, ys, ws)
        want = [t + _NONSPECIFICITY[name](x, y) ** w for t, x, y, w in zip(totals, xs, ys, ws)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_pi_column_is_pi(self):
        # Differences of 1e-13 and 4e-13 take the equality branch; 1e-12 is its edge.
        rng = random.Random("pi")
        ps = _EDGE_WEIGHTS + [rng.uniform(1e-9, 1.0) for _ in range(2000)]
        pairs = [(p, q) for p in _EDGE_WEIGHTS for q in _EDGE_WEIGHTS]
        pairs += [(p, rng.uniform(1e-9, 1.0)) for p in ps]
        pairs += [(p, p + d) for p in ps for d in (1e-13, -1e-13, 4e-13, -4e-13, 1e-12, 2e-12)
                  if 0.0 < p + d <= 1.0]
        assert sum(abs(p - q) <= 1e-12 and p != q for p, q in pairs) > 4000
        got = _pi_column(*zip(*pairs))
        assert [x.hex() for x in got] == [_pi_fast(p, q).hex() for p, q in pairs]
