import pytest

from phfe import (
    PSI_IDENTITY,
    CriterionSpec,
    DecisionMatrix,
    canonicalize,
    entropy_distance,
    hybrid,
    pi,
    verify,
    weighted_comprehensive,
)

#: Non-specificity exactly 1, so its comprehensive entropy is exactly 1.
_UNIT_ENTROPY = canonicalize([(0.0, 0.5), (1.0, 0.5)])
_UNIT_MATRIX = DecisionMatrix(
    ("x1", "x2", "x3"),
    (CriterionSpec("c1", "benefit"), CriterionSpec("c2", "cost")),
    ((_UNIT_ENTROPY,) * 2,) * 3,
)


def test_weights_suite_accepts_refusal_on_all_unit_entropy_cells():
    # Every cell has entropy 1, so the weights are rightly refused; the
    # weights predicate must accept that refusal.
    assert verify.weights_and_closeness(_UNIT_MATRIX) is None


def test_suite_with_skips_reports_checked_draws():
    # Singletons and contractions that collide values void the
    # non-specificity monotonicity premise; those draws are not counted.
    results = {r.name: r for r in verify.run_axiom_suites(42, 200)}
    checked = results["nonspecificity monotonicity"].samples
    assert 0 < checked < 200
    assert results["entropy range"].samples == 200


def test_identity_complement_fails_involution(monkeypatch):
    # The identity keeps the probability multiset, is its own inverse and
    # leaves every entropy unchanged; only the reflected values expose it.
    monkeypatch.setattr(verify, "complement", lambda a: a)
    failed = [r.name for r in verify.run_axiom_suites(7, 60) if not r.passed]
    assert failed == ["complement involution"]


_HALF = canonicalize([(0.5, 1.0)])
_PAIR = canonicalize([(0.25, 0.4), (0.5, 0.6)])
_CRISP = canonicalize([(0.0, 1.0)])
_BASE = verify.base_entropies(_PAIR)


def _offset_distance(a, b, *args):
    return entropy_distance(a, b, *args) + 2**-52


#: predicate -> (a wrong operation patched in as (name, value) or None, arguments)
WITNESSES = {
    "canonical_roundtrip": (("canonicalize", lambda pairs: pairs), (_PAIR, list(_PAIR)[::-1])),
    "complement_involution": (("complement", lambda a: a), (_PAIR, _PAIR)),
    "entropy_range": (None, (_PAIR, dict(_BASE, f2=1.5))),
    "complement_symmetry": (None, (_PAIR, _PAIR, _BASE, dict(_BASE, r1=_BASE["r1"] + 1e-9))),
    "combiner_ordering": (None, (_PAIR, dict(_BASE, r1=2.0))),
    "fuzziness_monotonicity": (None, (_HALF, _CRISP)),
    "nonspecificity_monotonicity": (None, (_UNIT_ENTROPY, _HALF)),
    "distance_symmetry": (
        ("entropy_distance", _offset_distance),
        (_PAIR, _HALF, PSI_IDENTITY, weighted_comprehensive(*hybrid(_PAIR, _HALF))),
    ),
    "psi_endpoint_agreement": (("ALL_PSI", (PSI_IDENTITY, lambda z: z / 2)), (_HALF, _HALF, 1.0)),
    "pi_symmetry": (("pi", lambda p, q: pi(p, q) + 1e-15 * (p > q)), (0.4, 0.2)),
    "theta_contract": (("_THETA", {"max": lambda xs, ys: list(map(min, xs, ys))}), (0.3, 0.5, 0.8)),
    "singleton_self_distance": (("entropy_distance", _offset_distance), (_HALF,)),
    "weights_and_closeness": (("comprehensive_entropy", lambda a: 0.5), (_UNIT_MATRIX,)),
    "boundary_exactness": (("fuzziness_entropy", lambda a, kernel=None: 0.5), ()),
    "multi_valued_self_distance": (None, (_HALF,)),
}


@pytest.mark.parametrize("name", WITNESSES)
def test_predicate_fires_on_its_witness(monkeypatch, name):
    # A predicate that can never fire would let the seeded suites and the
    # hypothesis tests that call it pass vacuously.
    patch, args = WITNESSES[name]
    if patch is not None:
        monkeypatch.setattr(verify, *patch)
    message = getattr(verify, name)(*args)
    assert isinstance(message, str) and message
