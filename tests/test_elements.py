import pytest

from phfe import (
    EmptyInputError,
    LinguisticScale,
    OutOfRangeError,
    ParseError,
    PHFE,
    ProbabilitySumError,
    TermOutOfRangeError,
    canonicalize,
    complement,
    from_linguistic,
    parse_phfe,
    parse_phfe_list,
    phfe_to_dict,
    pi,
)


class TestCanonicalize:
    def test_drops_zero_probability_and_merges(self):
        # The case-study matrix contains cells exactly like this one.
        a = canonicalize([(0.5, 0.0), (0.5, 0.4), (0.66, 0.6)])
        assert a.values == (0.5, 0.66)
        assert a.probs == (0.4, 0.6)

    def test_singleton_fixed_point(self):
        a = canonicalize([(0.3, 1.0)])
        assert a.values == (0.3,) and a.probs == (1.0,)

    def test_duplicate_merge_forced_by_invariants(self):
        a = canonicalize([(0.7, 0.5), (0.7, 0.5)])
        assert a.values == (0.7,)
        assert a.probs == (1.0,)

    def test_sorts_ascending(self):
        a = canonicalize([(0.9, 0.3), (0.1, 0.7)])
        assert a.values == (0.1, 0.9)
        assert a.probs == (0.7, 0.3)

    def test_idempotent(self):
        a = canonicalize([(0.2, 0.25), (0.8, 0.5), (0.2, 0.25)])
        again = canonicalize(list(a))
        assert again == a

    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            canonicalize([])

    def test_rejects_all_zero_probability(self):
        with pytest.raises(EmptyInputError):
            canonicalize([(0.5, 0.0)])
        with pytest.raises(EmptyInputError):
            canonicalize([(0.2, 0.0), (0.8, 0.0)])

    def test_rejects_value_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            canonicalize([(1.2, 1.0)])
        with pytest.raises(OutOfRangeError):
            canonicalize([(-0.1, 1.0)])

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            canonicalize([(0.5, 1.5)])

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ProbabilitySumError):
            canonicalize([(0.5, 0.4), (0.6, 0.4)])

    def test_accepts_sum_within_tolerance(self):
        a = canonicalize([(0.5, 0.5), (0.6, 0.5 + 5e-10)])
        assert len(a) == 2

    def test_thirds_sum_within_tolerance(self):
        third = 1.0 / 3.0
        a = canonicalize([(0.5, third), (0.6, third), (0.7, third)])
        assert len(a) == 3


class TestPHFEInvariants:
    def test_direct_construction_validates_order(self):
        with pytest.raises(OutOfRangeError):
            PHFE((0.8, 0.2), (0.5, 0.5))

    def test_direct_construction_validates_sum(self):
        with pytest.raises(ProbabilitySumError):
            PHFE((0.8,), (0.5,))

    def test_len_and_iter(self):
        a = canonicalize([(0.2, 0.5), (0.8, 0.5)])
        assert len(a) == 2
        assert list(a) == [(0.2, 0.5), (0.8, 0.5)]


class TestComplement:
    def test_reflects_values_keeps_probs(self):
        a = canonicalize([(0.3, 0.4), (0.8, 0.6)])
        c = complement(a)
        assert c.values == pytest.approx((0.2, 0.7), abs=1e-15)
        assert c.probs == (0.6, 0.4)

    def test_midpoint_self_complementary(self):
        a = canonicalize([(0.5, 1.0)])
        assert complement(a) == a

    def test_involution_on_dyadic_grid(self):
        grid = 1 << 12
        a = canonicalize([(5 / grid, 0.25), (19 / grid, 0.5), (4000 / grid, 0.25)])
        assert complement(complement(a)) == a


class TestPi:
    def test_unequal_branch(self):
        assert pi(0.2, 0.8) == pytest.approx(0.6)

    def test_equal_branch_is_mean(self):
        assert pi(0.5, 0.5) == 0.5
        assert pi(1.0, 1.0) == 1.0

    def test_equality_tolerance(self):
        # Just inside the tolerance: the mean branch fires.
        assert pi(0.5, 0.5 + 1e-13) == pytest.approx(0.5, abs=1e-12)
        # Just outside: the absolute-difference branch fires.
        assert pi(0.5, 0.5 + 1e-11) == pytest.approx(1e-11, rel=1e-3)

    def test_symmetric(self):
        assert pi(0.3, 0.9) == pi(0.9, 0.3)

    def test_domain_errors(self):
        with pytest.raises(OutOfRangeError):
            pi(0.0, 0.5)
        with pytest.raises(OutOfRangeError):
            pi(0.5, 1.1)


class TestLinguistic:
    def test_scale_validation(self):
        with pytest.raises(OutOfRangeError):
            LinguisticScale(0)

    def test_single_term(self):
        a = from_linguistic([(4, 1.0)], LinguisticScale(3))
        assert a.values == (4 / 6,)

    def test_lowest_term_maps_to_zero(self):
        a = from_linguistic([(0, 1.0)], LinguisticScale(3))
        assert a.values == (0.0,)

    def test_pairwise_mapping(self):
        a = from_linguistic([(3, 0.5), (6, 0.5)], LinguisticScale(3))
        assert a.values == (0.5, 1.0)
        assert a.probs == (0.5, 0.5)

    def test_monotone_in_term_index(self):
        scale = LinguisticScale(4)
        values = [from_linguistic([(t, 1.0)], scale).values[0] for t in range(9)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_term_out_of_range(self):
        with pytest.raises(TermOutOfRangeError):
            from_linguistic([(7, 1.0)], LinguisticScale(3))
        with pytest.raises(TermOutOfRangeError):
            from_linguistic([(-1, 1.0)], LinguisticScale(3))


class TestJsonForms:
    def test_parse_pairs_form(self):
        a = parse_phfe({"pairs": [{"v": 0.5, "p": 0.4}, {"v": 0.66, "p": 0.6}]})
        assert a.values == (0.5, 0.66)

    def test_parse_linguistic_form(self):
        a = parse_phfe({"terms": [{"t": 4, "p": 1.0}], "tau": 3})
        assert a.values == (4 / 6,)

    def test_linguistic_default_tau(self):
        a = parse_phfe({"terms": [{"t": 2, "p": 1.0}]}, default_tau=3)
        assert a.values == (2 / 6,)

    def test_linguistic_missing_tau(self):
        with pytest.raises(ParseError):
            parse_phfe({"terms": [{"t": 2, "p": 1.0}]})

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_phfe({"nope": 1})
        with pytest.raises(ParseError):
            parse_phfe({"pairs": [{"v": 0.5}]})

    def test_roundtrip(self):
        a = canonicalize([(0.2, 0.5), (0.8, 0.5)])
        assert parse_phfe(phfe_to_dict(a)) == a

    def test_parse_list_forms(self):
        single = parse_phfe_list({"pairs": [{"v": 0.5, "p": 1.0}]})
        assert len(single) == 1
        many = parse_phfe_list([
            {"pairs": [{"v": 0.5, "p": 1.0}]},
            {"terms": [{"t": 6, "p": 1.0}], "tau": 3},
        ])
        assert [a.values for a in many] == [(0.5,), (1.0,)]


def test_repr_is_compact():
    a = canonicalize([(0.5, 0.4), (0.66, 0.6)])
    assert repr(a) == "{0.5|0.4, 0.66|0.6}"


def test_probability_multiset_preserved_under_complement():
    a = canonicalize([(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)])
    c = complement(a)
    assert sorted(c.probs) == sorted(a.probs)
    assert len(c) == len(a)
