import copy
import math
import pickle
import random

import pytest

import oracle
import phfe.distance
import phfe.mcdm
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
from phfe.entropy import F1, F2, F3, R1, _pairwise
from phfe.verify import random_phfe
from support import KERNEL_PAIRS, cell_sums, oracle_fn

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
                x = _pairwise(*full, R1, kernel)[1]
                y = _pairwise(*empty, R1, kernel)[1]
                assert abs(x - y) <= 8 * math.ulp(max(x, y)), (a, kernel.label, x, y)


def _hex(sums):
    return [x.hex() for x in sums]


def _sorted_hybrids(a):
    """The oracle's hybrids of ``a`` with {1|1} and with {0|1}, sorted."""
    return oracle.hybrid(list(a), [(1.0, 1.0)]), oracle.hybrid(list(a), [(0.0, 1.0)])


def _in_place_lanes(a):
    """The same hybrids unsorted: ``a``'s order against {1|1}, its reverse against {0|1}."""
    weights = [oracle.pi_op(p, 1.0) for p in a.probs]
    full = [(1.0 - abs(v - 1.0)) / 2.0 for v in a.values]
    empty = [(1.0 - abs(v - 0.0)) / 2.0 for v in a.values]
    return (full, weights), (empty[::-1], weights[::-1])


def _oracle_sums(a, config, ideals):
    """The six sums of a TOPSIS cell by the oracle: the cell's, then those of the two
    ideal hybrids ``ideals``."""
    r_fn, f_fn = oracle_fn(config.fuzziness), oracle_fn(config.nonspecificity)
    lanes = (a.values, a.probs), *ideals
    return [x for lane in lanes
            for x in (oracle.fuzziness(*lane, r_fn), oracle.nonspecificity(*lane, f_fn))]


def _near_equal_weights(rng):
    """Elements of 1..8 values, probabilities within 1e-12 of each other: pi's equality branch."""
    for length in range(1, 9):
        values = sorted(rng.sample(range(1, 1000), length))
        yield canonicalize(
            [(v / 1000, 1.0 / length - rng.choice([0.0, 1e-13, 4e-13])) for v in values]
        )


class TestIdealComponents:
    """``mcdm._columns`` on a one-cell matrix sums the cell and its two ideal hybrids built
    in place, never through hybrid(); that equals the oracle's sorted hybrids bit for bit,
    unless 1 - v rounds two of the cell's values together.  They stay beside the element
    distance, whose hybrid() they are checked against."""

    def test_random_elements_equal_the_sorted_hybrids(self):
        rng = random.Random("ideal")
        elements = [random_phfe(rng) for _ in range(300)]
        elements += [random_phfe(rng, 8) for _ in range(40)]
        elements += [a for _ in range(5) for a in _near_equal_weights(rng)]
        assert {len(a) for a in elements} == set(range(1, 9))
        for a in elements:
            for config in KERNEL_PAIRS:
                expected = _oracle_sums(a, config, _sorted_hybrids(a))
                assert _hex(cell_sums(a, config)) == _hex(expected), (a, config.label)

    @pytest.mark.parametrize(
        "a",
        [
            canonicalize([(1e-17, 0.5), (2e-17, 0.5)]),
            canonicalize([(1e-17, 0.3), (2e-17, 0.7)]),
            canonicalize([(0.0, 0.2), (1e-17, 0.3), (2e-17, 0.1), (0.4, 0.4)]),
            canonicalize([(1e-17, 0.5 + 4e-13), (2e-17, 0.5 - 4e-13)]),
            canonicalize([(v, 0.125) for v in (0.0, 1e-17, 2e-17, 0.25, 0.5, 0.75, 0.9, 1.0)]),
        ],
        ids=["equal-weights", "unequal-weights", "with-zero", "near-equal-weights", "eight-values"],
    )
    def test_colliding_cells_use_in_place_lanes(self, a, monkeypatch):
        # 1 - v is 1.0 for both 1e-17 and 2e-17, so the sorted hybrids may order the
        # ideal lanes otherwise and round a sum an ulp apart; the oracle allows 1e-12.
        assert 1.0 - 1e-17 == 1.0 - 2e-17 == 1.0

        def refuse(a, b):
            raise AssertionError(f"hybrid({a}, {b}) built")

        monkeypatch.setattr(phfe.distance, "hybrid", refuse)
        monkeypatch.setattr(phfe.mcdm, "hybrid", refuse, raising=False)
        for config in KERNEL_PAIRS:
            got = cell_sums(a, config)
            assert _hex(got) == _hex(_oracle_sums(a, config, _in_place_lanes(a))), config.label
            sorted_sums = _oracle_sums(a, config, _sorted_hybrids(a))
            assert list(got) == pytest.approx(sorted_sums, rel=0, abs=1e-12), config.label


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
