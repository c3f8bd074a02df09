"""``canonicalize`` against the dict-merge form it replaced, bit for bit.

``merge_canonicalize`` is that form, kept here as the reference: every pair converted first,
then checked in input order, merged in a dict in input order, sorted, clamped and the merged
sum checked.  The library makes one checked pass and keeps input whose kept values already
ascend strictly as it stands.  On seeded raw lists the two must give the same ``values`` and
``probs`` to the bit, or refuse with the same exception type and message.  The lists cover
shuffled and canonical order, one value repeated three times or more, zero-probability pairs,
``-0.0``, ``int`` fields, totals either side of ``1 ± PROB_SUM_TOL``, generators and empty
input.  Pairs that ``float()`` cannot convert are left out: the reference converts all of them
before it checks any, the library meets each in turn.
"""

import random
from functools import reduce
from operator import add

import pytest

import phfe.elements
from phfe import PHFE, canonicalize
from phfe.elements import PROB_SUM_TOL
from phfe.errors import EmptyInputError, OutOfRangeError, ProbabilitySumError


def _check_total(total):
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ProbabilitySumError(f"probabilities sum to {total!r}, expected 1")


def merge_canonicalize(raw_pairs):
    pairs = [(float(v) + 0.0, float(p)) for v, p in raw_pairs]
    if not pairs:
        raise EmptyInputError("no pairs given")
    merged = {}
    total = 0.0
    for v, p in pairs:
        if not 0.0 <= v <= 1.0:
            raise OutOfRangeError(f"membership value {v!r} outside [0, 1]")
        if not 0.0 <= p <= 1.0:
            raise OutOfRangeError(f"probability {p!r} outside [0, 1]")
        total += p
        if p != 0.0:
            merged[v] = merged.get(v, 0.0) + p
    if not merged:
        raise EmptyInputError("all pairs carry zero probability")
    _check_total(total)
    values = tuple(sorted(merged))
    probs = tuple([p if (p := merged[v]) <= 1.0 else 1.0 for v in values])
    _check_total(reduce(add, probs, 0.0))
    return values, probs


def outcome(make, raw):
    """``(values, probs)`` in hex, or ``(exception type, message)``."""
    try:
        got = make(raw)
    except (EmptyInputError, OutOfRangeError, ProbabilitySumError) as exc:
        return type(exc), str(exc)
    values, probs = (got.values, got.probs) if isinstance(got, PHFE) else got
    return [v.hex() for v in values], [p.hex() for p in probs]


_ODD_VALUES = [-0.0, 0, 1, 0.0, 1.0, 1.5, -1e-300, float("nan"), 1 + 2**-52]


def raw_pairs(rng):
    """A raw pair list: values on a coarse grid (so some repeat) or anywhere in [0, 1], a few
    odd ones, probabilities that split one with zeros and ``int`` fields mixed in, the total
    nudged to either side of the tolerance, and the order canonical, shuffled or reversed."""
    n = rng.choice([0, 1, 2, 3, 4, 6, 9])
    grid = rng.choice([4, 8, 1000])
    values = [rng.randrange(grid + 1) / grid for _ in range(n)]
    if n >= 3 and rng.random() < 0.3:  # one value three times or more
        r = rng.randrange(3, n + 1)
        values[:r] = [values[0]] * r
    if n and rng.random() < 0.2:
        values[rng.randrange(n)] = rng.choice(_ODD_VALUES)
    cuts = sorted(rng.random() for _ in range(n - 1)) if n else []
    probs = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])] if n else []
    for k in range(n):
        if rng.random() < 0.15:
            probs[k] = rng.choice([0, 0.0, -0.0, 1])
    if n and rng.random() < 0.3:  # either side of PROB_SUM_TOL, or far off
        probs[-1] += rng.choice([1, -1]) * rng.choice([PROB_SUM_TOL * (1 - 1e-6),
                                                       PROB_SUM_TOL * (1 + 1e-6), 0.25])
    pairs = list(zip(values, probs))
    order = rng.choice(["canonical", "shuffled", "reversed", "as drawn"])
    if order == "canonical":
        pairs.sort(key=lambda vp: vp[0] if vp[0] == vp[0] else 2.0)
    elif order == "shuffled":
        rng.shuffle(pairs)
    elif order == "reversed":
        pairs.sort(key=lambda vp: vp[0] if vp[0] == vp[0] else 2.0, reverse=True)
    return pairs


@pytest.mark.parametrize("seed", range(8))
def test_matches_the_merge_form_bit_for_bit(seed):
    rng = random.Random(seed)
    for _ in range(500):
        pairs = raw_pairs(rng)
        expected = outcome(merge_canonicalize, pairs)
        assert outcome(canonicalize, pairs) == expected, pairs
        assert outcome(canonicalize, iter(pairs)) == expected, pairs  # a one-shot generator


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        [(0.5, 0.0), (0.7, -0.0)],
        [(0, 1), (1, 0)],
        [(-0.0, 0.5), (0.0, 0.5)],
        [(0.2, 0.0), (0.2, 0.5), (0.7, 0.5)],  # a zero before its value's kept pair
        # Merge order matters: three and four repeats of one value, in two orders.
        [(0.3, 0.1), (0.3, 0.2), (0.3, 0.3), (0.9, 0.4)],
        [(0.3, 0.3), (0.3, 0.2), (0.9, 0.4), (0.3, 0.1)],
        [(0.1, 0.06767298869772648), (0.2, 0.27558523703460824), (0.1, 0.6567417752676652)],
        [(0.5, 0.6), (0.5, 0.4 + 5e-10)],  # merged past 1 within the tolerance: clamped
        [(0.25, 0.5), (0.75, 0.5 + 1e-9)],
        [(0.25, 0.5), (0.75, 0.5 + 1.0000001e-9)],
        [(0.25, 0.5), (0.75, 0.5 - 1.0000001e-9)],
    ],
)
def test_edge_lists_match_the_merge_form(pairs):
    assert outcome(canonicalize, pairs) == outcome(merge_canonicalize, pairs)
    assert outcome(canonicalize, (p for p in pairs)) == outcome(merge_canonicalize, pairs)


def test_the_draws_reach_every_branch():
    # Both paths, a merge of three or more pairs and each refusal: the lists are not all alike.
    rng, seen = random.Random(0), set()
    for _ in range(4000):
        pairs = raw_pairs(rng)
        result = outcome(merge_canonicalize, pairs)
        if isinstance(result[0], type):
            seen.add(result[0].__name__ + ": " + result[1].split()[0])
            continue
        kept = [float(v) + 0.0 for v, p in pairs if float(p) != 0.0]
        seen.add("as given" if kept == sorted(set(kept)) else "merged")
        if max(map(kept.count, kept)) >= 3:
            seen.add("three merged")
    assert seen == {
        "as given", "merged", "three merged", "EmptyInputError: no", "EmptyInputError: all",
        "OutOfRangeError: membership", "OutOfRangeError: probability",
        "ProbabilitySumError: probabilities",
    }, seen


def test_canonical_input_skips_the_merge(monkeypatch):
    # Kept values that ascend strictly are taken as they stand: no merge, sort or second sum.
    def second_sum(xs):
        raise AssertionError("merged")

    monkeypatch.setattr(phfe.elements, "_ltr_sum", second_sum)
    a = canonicalize([(0.0, 0.0), (0.2, 0.5), (0.2, 0.0), (0.7, 0.5)])  # zeros drop out first
    assert (a.values, a.probs) == ((0.2, 0.7), (0.5, 0.5))
    for pairs in ([(0.7, 0.5), (0.2, 0.5)], [(0.2, 0.5), (0.2, 0.5)]):
        with pytest.raises(AssertionError, match="merged"):
            canonicalize(pairs)
