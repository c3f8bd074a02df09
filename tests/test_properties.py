"""Property-based checks of the documented axioms with hypothesis.

Each axiom test asserts that the predicate of :mod:`phfe.verify` which
states it, the same one the seeded axiom suites run, finds no
counterexample on hypothesis's draws.  Membership values are drawn on a
dyadic grid so the complement map round-trips exactly in binary floating
point; probabilities come from integer weights, keeping the sum-to-one
constraint inside tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from phfe import (
    ALL_PSI,
    LinguisticScale,
    canonicalize,
    complement,
    from_linguistic,
    hybrid,
    weighted_comprehensive,
)
from phfe.verify import (
    base_entropies,
    canonical_roundtrip,
    combiner_ordering,
    complement_involution,
    complement_symmetry,
    distance_symmetry,
    entropy_range,
    pi_symmetry,
    psi_endpoint_agreement,
)

GRID = 1 << 16


@st.composite
def phfes(draw, max_len=6):
    length = draw(st.integers(1, max_len))
    ticks = draw(
        st.lists(st.integers(0, GRID), min_size=length, max_size=length, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 50), min_size=length, max_size=length))
    total = sum(weights)
    return canonicalize(
        [(t / GRID, w / total) for t, w in zip(sorted(ticks), weights)]
    )


@given(phfes())
def test_entropy_ranges(a):
    assert entropy_range(a, base_entropies(a)) is None


@given(phfes())
def test_complement_involution_and_multiset(a):
    assert complement_involution(a, complement(a)) is None


@given(phfes())
def test_complement_symmetry_within_exact_tolerance(a):
    c = complement(a)
    assert complement_symmetry(a, c, base_entropies(a), base_entropies(c)) is None


@given(phfes())
def test_combiner_ordering_pointwise(a):
    assert combiner_ordering(a, base_entropies(a)) is None


@given(phfes(max_len=4), phfes(max_len=4))
def test_distance_symmetry_and_bounds(a, b):
    ec = weighted_comprehensive(*hybrid(a, b))
    for psi in ALL_PSI:
        assert distance_symmetry(a, b, psi, ec) is None


@given(phfes())
def test_permutation_invariance(a):
    assert canonical_roundtrip(a, list(a)[::-1]) is None


@given(st.integers(1, 100), st.integers(1, 100))
def test_pi_symmetry_and_range(i, j):
    assert pi_symmetry(i / 100.0, j / 100.0) is None


@given(st.integers(1, 6), st.data())
def test_linguistic_transform_monotone(tau, data):
    scale = LinguisticScale(tau)
    t1 = data.draw(st.integers(0, 2 * tau - 1))
    t2 = data.draw(st.integers(t1 + 1, 2 * tau))
    v1 = from_linguistic([(t1, 1.0)], scale).values[0]
    v2 = from_linguistic([(t2, 1.0)], scale).values[0]
    assert v1 < v2


@settings(max_examples=50)
@given(phfes(max_len=3), phfes(max_len=3))
def test_psi_variants_agree_on_zero_distance(a, b):
    assert psi_endpoint_agreement(a, b, weighted_comprehensive(*hybrid(a, b))) is None
