import copy
import dataclasses
import pickle
import random

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
from phfe.verify import random_phfe


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

    def test_negative_zero_folds_into_zero(self):
        # -0.0 == 0.0 with the same hash, so the two are one value, whichever comes first.
        for raw in ([(-0.0, 1.0)], [(-0.0, 0.5), (0.0, 0.5)], [(0.0, 0.5), (-0.0, 0.5)]):
            a = canonicalize(raw)
            assert [v.hex() for v in a.values] == ["0x0.0p+0"]
            assert repr(a) == "{0|1}"
            assert phfe_to_dict(a) == {"pairs": [{"v": 0.0, "p": 1.0}]}
            assert str(phfe_to_dict(a)["pairs"][0]["v"]) == "0.0"
        # Every other value keeps its bits, the smallest subnormal included.
        assert canonicalize([(5e-324, 0.5), (0.3, 0.5)]).values == (5e-324, 0.3)

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

    @pytest.mark.parametrize(
        "document",
        ["ab", {"phfes": "ab"}, ({"pairs": [{"v": 0.5, "p": 1.0}]},), 5],
        ids=["string", "string-phfes", "tuple", "number"],
    )
    def test_a_list_of_elements_is_a_list(self, document):
        # A JSON array is a list: a string is not read letter by letter as elements.
        with pytest.raises(ParseError) as caught:
            parse_phfe_list(document)
        assert str(caught.value) == "expected an element object or an array of them"

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"pairs": "ab"}, '"pairs" must be a list'),
            ({"pairs": {"v": 0.5, "p": 1}}, '"pairs" must be a list'),
            ({"terms": "ab", "tau": 2}, '"terms" must be a list'),
            ({"terms": {"t": 1, "p": 1}, "tau": 2}, '"terms" must be a list'),
        ],
        ids=["string-pairs", "object-pairs", "string-terms", "object-terms"],
    )
    def test_an_item_list_is_a_list(self, document, message):
        # Refused by its shape, not with the TypeError of reading a string or object as items.
        with pytest.raises(ParseError) as caught:
            parse_phfe(document)
        assert type(caught.value) is ParseError and str(caught.value) == message


def test_repr_is_compact():
    a = canonicalize([(0.5, 0.4), (0.66, 0.6)])
    assert repr(a) == "{0.5|0.4, 0.66|0.6}"


def test_probability_multiset_preserved_under_complement():
    a = canonicalize([(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)])
    c = complement(a)
    assert sorted(c.probs) == sorted(a.probs)
    assert len(c) == len(a)


class TestCanonicalFormIsAValidElement:
    """canonicalize builds its result without PHFE's second validation pass."""

    def test_same_as_validated_construction(self):
        rng = random.Random("canonical")
        raws = [
            [(0.5, 0.0), (0.5, 0.4), (0.66, 0.6)],
            [(-0.0, 0.5), (0.0, 0.5)],
            [(0.5, 0.9999999996), (0.5, 8e-10)],  # merged to 1.0000000004, clamped to 1
            [(1.0, 1.0)],
        ]
        raws += [list(random_phfe(rng)) for _ in range(300)]
        for raw in raws:
            a = canonicalize(raw)
            b = PHFE(a.values, a.probs)
            assert type(a) is PHFE
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert vars(a) == vars(b)
            assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
        assert canonicalize(raws[2]).probs == (1.0,)

    def test_stays_frozen(self):
        a = canonicalize([(0.2, 0.5), (0.8, 0.5)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.values = (0.1, 0.9)


# Type and message of each refusal, as the error line of the CLI prints them.
@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: canonicalize([]), EmptyInputError, "no pairs given"),
        (lambda: canonicalize([(0.2, 0.0), (0.8, 0.0)]), EmptyInputError,
         "all pairs carry zero probability"),
        (lambda: canonicalize([(1.2, 1.0)]), OutOfRangeError,
         "membership value 1.2 outside [0, 1]"),
        # The first bad pair is reported, before any zero-probability verdict.
        (lambda: canonicalize([(0.5, 0.0), (0.7, 0.0), (2.0, 0.0)]), OutOfRangeError,
         "membership value 2.0 outside [0, 1]"),
        (lambda: canonicalize([(float("nan"), 1.0)]), OutOfRangeError,
         "membership value nan outside [0, 1]"),
        (lambda: canonicalize([(0.5, 0.5), (0.7, 0.5), (0.9, 1.5)]), OutOfRangeError,
         "probability 1.5 outside [0, 1]"),
        (lambda: canonicalize([(0.5, -0.0), (0.5, -1e-300)]), OutOfRangeError,
         "probability -1e-300 outside [0, 1]"),
        (lambda: canonicalize([(0.5, 0.6), (0.5, 0.6)]), ProbabilitySumError,
         "probabilities sum to 1.2, expected 1"),
        # Passes on the input order; merging re-adds it to just past the tolerance.
        (lambda: canonicalize([(0.1, 0.06767298869772648), (0.2, 0.27558523703460824),
                               (0.1, 0.6567417752676652)]), ProbabilitySumError,
         "probabilities sum to 1.000000001, expected 1"),
        (lambda: PHFE((), ()), EmptyInputError, "an element needs at least one pair"),
        (lambda: PHFE((0.5,), (0.5, 0.5)), OutOfRangeError, "1 values but 2 probabilities"),
        (lambda: PHFE((1.5,), (1.0,)), OutOfRangeError, "membership value 1.5 outside [0, 1]"),
        (lambda: PHFE((0.5,), (0.0,)), OutOfRangeError, "probability 0.0 outside (0, 1]"),
        (lambda: PHFE((0.2, 0.2), (0.5, 0.5)), OutOfRangeError,
         "values must be strictly increasing"),
        (lambda: PHFE((0.8,), (0.5,)), ProbabilitySumError,
         "probabilities sum to 0.5, expected 1"),
        (lambda: parse_phfe({"pairs": [{"v": "abc", "p": 1}]}), ParseError,
         '"v" must be a number, got "abc"'),
        # A long value is echoed to 40 characters, as names are.
        (lambda: parse_phfe({"pairs": [{"v": list(range(3000)), "p": 1}]}), ParseError,
         '"v" must be a number, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1'),
        (lambda: parse_phfe({"terms": [{"t": 1, "p": 1}], "tau": "x" * 4000}), ParseError,
         '"tau" must be a number, got "' + "x" * 39),
        # One row per branch of parse_phfe's number checks; the first fault reported wins.
        (lambda: parse_phfe({"pairs": [{"v": 0.5, "p": True}]}), ParseError,
         '"p" must be a number, got true'),
        (lambda: parse_phfe({"pairs": [{"v": None, "p": 1}]}), ParseError,
         '"v" must be a number, got null'),
        (lambda: parse_phfe({"terms": [{"t": "2", "p": 1}], "tau": 3}), ParseError,
         '"t" must be a number, got "2"'),
        (lambda: parse_phfe({"pairs": [{"v": 0.5, "p": 1}, 5]}), ParseError,
         "malformed pair list: 'int' object is not subscriptable"),
        (lambda: parse_phfe({"pairs": [{"v": "x"}]}), ParseError,
         '"v" must be a number, got "x"'),
        (lambda: parse_phfe({"pairs": [{"v": 0.5, "p": 10**400}]}), ParseError,
         '"p" is an integer beyond the float range'),
        (lambda: parse_phfe([1]), ParseError, "expected an object, got list"),
        (lambda: parse_phfe({"pairs": [{"v": 0.5}]}), ParseError, "malformed pair list: 'p'"),
        (lambda: parse_phfe({"terms": [{"t": 7, "p": 1}], "tau": 3}), TermOutOfRangeError,
         "term index 7 outside 0..6"),
        # bool is an int subclass; True would make a scale with top term 2.
        (lambda: LinguisticScale(True), OutOfRangeError, "tau must be a positive integer, got True"),
    ],
)
def test_refusal_type_and_message(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
