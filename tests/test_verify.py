import random

from phfe import canonicalize, verify

#: Non-specificity exactly 1, so its comprehensive entropy is exactly 1.
_UNIT_ENTROPY = canonicalize([(0.0, 0.5), (1.0, 0.5)])


def test_weights_suite_accepts_refusal_on_all_unit_entropy_cells(monkeypatch):
    # Every cell of every drawn matrix has entropy 1, so the weights are
    # rightly refused on each draw; the suite must accept that refusal.
    monkeypatch.setattr(verify, "random_phfe", lambda rng, max_len=6: _UNIT_ENTROPY)
    result = verify._weights_suite(random.Random("0:7"), 25)
    assert result.passed, result.counterexample
    assert result.samples == 25


def test_suite_with_skips_reports_checked_draws():
    # Singletons and contractions that collide values void the
    # non-specificity monotonicity premise; those draws are not counted.
    results = {r.name: r for r in verify.run_axiom_suites(42, 200)}
    checked = results["nonspecificity monotonicity"].samples
    assert 0 < checked < 200
    assert results["entropy range"].samples == 200
