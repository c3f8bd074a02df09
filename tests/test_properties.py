"""Property-based checks of the documented axioms with hypothesis.

Membership values are drawn on a dyadic grid so the complement map
round-trips exactly in binary floating point; probabilities come from
integer weights, keeping the sum-to-one constraint inside tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from phfe import (
    ALL_PSI,
    EntropyConfig,
    F1,
    F2,
    F3,
    R1,
    R2,
    THETA_BSUM,
    THETA_MAX,
    THETA_PSUM,
    canonicalize,
    complement,
    comprehensive_entropy,
    entropy_distance,
    from_linguistic,
    fuzziness_entropy,
    LinguisticScale,
    nonspecificity_entropy,
    pi,
)

GRID = 1 << 16

EXACT = 1e-12


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
    for kernel in (R1, R2):
        assert 0.0 <= fuzziness_entropy(a, kernel) <= 1.0
    for kernel in (F1, F2, F3):
        assert 0.0 <= nonspecificity_entropy(a, kernel) <= 1.0


@given(phfes())
def test_complement_involution_and_multiset(a):
    c = complement(a)
    assert len(c) == len(a)
    assert sorted(c.probs) == sorted(a.probs)
    assert complement(c) == a


@given(phfes())
def test_complement_symmetry_within_exact_tolerance(a):
    c = complement(a)
    assert abs(fuzziness_entropy(a) - fuzziness_entropy(c)) <= EXACT
    for kernel in (F1, F2, F3):
        assert (
            abs(nonspecificity_entropy(a, kernel) - nonspecificity_entropy(c, kernel))
            <= EXACT
        )


@given(phfes())
def test_combiner_ordering_pointwise(a):
    for fuzz in (R1, R2):
        for ns in (F1, F2, F3):
            e_max = comprehensive_entropy(a, EntropyConfig(fuzz, ns, THETA_MAX))
            e_psum = comprehensive_entropy(a, EntropyConfig(fuzz, ns, THETA_PSUM))
            e_bsum = comprehensive_entropy(a, EntropyConfig(fuzz, ns, THETA_BSUM))
            assert e_max <= e_psum <= e_bsum


@given(phfes(max_len=4), phfes(max_len=4))
def test_distance_symmetry_and_bounds(a, b):
    for psi in ALL_PSI:
        d = entropy_distance(a, b, psi)
        assert d == entropy_distance(b, a, psi)
        assert 0.0 <= d <= 1.0


@given(phfes())
def test_permutation_invariance(a):
    reversed_pairs = list(a)[::-1]
    assert canonicalize(reversed_pairs) == a


@given(
    st.integers(1, 100).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(1, 100), st.integers(1, 100))
    )
)
def test_pi_symmetry_and_range(triple):
    _, i, j = triple
    p, q = i / 100.0, j / 100.0
    assert pi(p, q) == pi(q, p)
    assert 0.0 < pi(p, q) <= 1.0


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
    flags = {entropy_distance(a, b, psi) == 0.0 for psi in ALL_PSI}
    assert len(flags) == 1
