import ast
import random
import sys
from pathlib import Path

import pytest

from phfe import (
    F1,
    F2,
    F3,
    PSI_IDENTITY,
    R1,
    R2,
    CriterionSpec,
    DecisionMatrix,
    TopsisResult,
    WeightVector,
    all_configs,
    canonicalize,
    complement,
    comprehensive_entropy,
    entropy_distance,
    fuzziness_entropy,
    hybrid,
    nonspecificity_entropy,
    pi,
    verify,
    weighted_comprehensive,
)
from phfe.errors import OutOfRangeError

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


#: A matrix whose weights are defined, for the rows that reach the checks after them.
_MATRIX = DecisionMatrix(
    ("x1", "x2"),
    (CriterionSpec("c1", "benefit"), CriterionSpec("c2", "cost")),
    ((_PAIR, _HALF), (_CRISP, _PAIR)),
)


def _topsis(weights, closeness, ranking):
    """A stand-in for run_topsis that returns the given weights, closeness and ranking."""
    return lambda matrix: TopsisResult(
        WeightVector(weights, weights), (0.5, 0.5), (0.5, 0.5), closeness, ranking
    )


def _split_fuzziness(a, kernel=None):
    """Fuzziness as published on singletons, and 0.5 on every longer element."""
    return fuzziness_entropy(a) if len(a) == 1 else 0.5


#: Combiners that fix 0 and 1 against 0: the first does not commute, the second
#: commutes but falls as y grows.
_FIRST_THETA = {"max": lambda xs, ys: list(xs)}
_FALLING_THETA = {
    "max": lambda xs, ys: [x + y if x * y == 0 else 1.0 - x * y for x, y in zip(xs, ys)]
}

#: One row per counterexample ``return``, keyed by the predicate's name and, after a dash,
#: the branch: (a wrong operation patched in as (name, value) or None, arguments, a fragment
#: of the message that only this branch gives).
WITNESSES = {
    "canonical_roundtrip-idempotent": (
        ("canonicalize", lambda pairs: _HALF), (_PAIR, list(_PAIR)), "not idempotent"
    ),
    "canonical_roundtrip": (
        ("canonicalize", lambda pairs: pairs), (_PAIR, list(_PAIR)[::-1]), "depends on input order"
    ),
    "complement_involution-multiset": (None, (_PAIR, _HALF), "probability multiset"),
    "complement_involution-inverse": (
        ("complement", lambda a: a), (_PAIR, complement(_PAIR)), "not involutive"
    ),
    "complement_involution": (("complement", lambda a: a), (_PAIR, _PAIR), "does not reflect"),
    "entropy_range": (None, (_PAIR, dict(_BASE, f2=1.5)), "f2 entropy of"),
    "complement_symmetry": (
        None, (_PAIR, _PAIR, _BASE, dict(_BASE, r1=_BASE["r1"] + 1e-9)), "r1 entropy:"
    ),
    "complement_symmetry-baseline": (None, (_PAIR, _HALF, _BASE, _BASE), "su_entropy_p1:"),
    "combiner_ordering": (
        None, (_PAIR, dict(_BASE, **{"r1:f1:max": 2.0})), "combiner ordering broken"
    ),
    "fuzziness_monotonicity": (None, (_HALF, _CRISP), "fuzziness[r1] not monotone"),
    "nonspecificity_monotonicity": (
        None, (_UNIT_ENTROPY, _HALF), "nonspecificity[f1] not monotone"
    ),
    "distance_symmetry": (
        ("entropy_distance", _offset_distance),
        (_PAIR, _HALF, PSI_IDENTITY, weighted_comprehensive(*hybrid(_PAIR, _HALF))),
        "distance asymmetric",
    ),
    "distance_symmetry-range": (
        ("entropy_distance", lambda a, b, psi: 1.5), (_PAIR, _HALF, PSI_IDENTITY, -0.5),
        "distance out of range",
    ),
    "psi_endpoint_agreement": (
        ("ALL_PSI", (PSI_IDENTITY, lambda z: z / 2)), (_HALF, _HALF, 1.0), "psi variants disagree"
    ),
    "pi_symmetry": (("pi", lambda p, q: pi(p, q) + 1e-15 * (p > q)), (0.4, 0.2), "!= pi(0.2"),
    "pi_symmetry-range": (("pi", lambda p, q: 0.0), (0.4, 0.2), "outside (0, 1]"),
    "theta_contract": (
        ("_THETA", {"max": lambda xs, ys: list(map(min, xs, ys))}), (0.3, 0.5, 0.8),
        "theta[max](1.0, 0) != 1.0",
    ),
    "theta_contract-commutative": (("_THETA", _FIRST_THETA), (0.3, 0.5, 0.8), "not commutative"),
    "theta_contract-monotone": (("_THETA", _FALLING_THETA), (0.3, 0.5, 0.8), "not monotone"),
    "singleton_self_distance": (("entropy_distance", _offset_distance), (_HALF,), "psi="),
    "weights_and_closeness": (
        ("comprehensive_entropy", lambda a: 0.5), (_UNIT_MATRIX,), "weights refused"
    ),
    "weights_and_closeness-negative": (
        ("run_topsis", _topsis((1.5, -0.5), (0.2, 0.8), (1, 0))), (_UNIT_MATRIX,),
        "negative weight",
    ),
    "weights_and_closeness-sum": (
        ("run_topsis", _topsis((0.25, 0.35), (0.2, 0.8), (1, 0))), (_UNIT_MATRIX,),
        "weights sum to",
    ),
    "weights_and_closeness-closeness": (
        ("run_topsis", _topsis((0.5, 0.5), (1.5, 0.8), (0, 1))), (_UNIT_MATRIX,),
        "closeness out of range",
    ),
    "weights_and_closeness-ranking": (
        ("run_topsis", _topsis((0.5, 0.5), (0.2, 0.8), (0, 1))), (_UNIT_MATRIX,),
        "ranking not sorted",
    ),
    "weights_and_closeness-raw": (
        ("comprehensive_entropy", lambda a: comprehensive_entropy(a) + 2**-52), (_MATRIX,),
        "raw weight of 'c1'",
    ),
    "weights_and_closeness-distance": (
        ("entropy_distance", lambda a, b: entropy_distance(a, b) + 1e-9), (_MATRIX,),
        "d+ of 'x1'",
    ),
    "boundary_exactness": (
        ("fuzziness_entropy", lambda a, kernel=None: 0.5), (), "fuzziness({0|1})"
    ),
    "boundary_exactness-split": (
        ("fuzziness_entropy", _split_fuzziness), (), "fuzziness({0|0.5, 1|0.5})"
    ),
    "multi_valued_self_distance": (None, (_HALF,), "itself"),
}


def _fire(monkeypatch, key):
    """Run one witness row; return its message and the line of the ``return`` that gave it."""
    patch, args, _ = WITNESSES[key]
    if patch is not None:
        monkeypatch.setattr(verify, *patch)
    predicate, lines = getattr(verify, key.partition("-")[0]), []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is predicate.__code__:
            lines.append(frame.f_lineno)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        message = predicate(*args)
    finally:
        sys.setprofile(previous)
    return message, lines[-1]


@pytest.mark.parametrize("key", WITNESSES)
def test_predicate_fires_on_its_witness(monkeypatch, key):
    # A predicate that can never fire would let the seeded suites and the
    # hypothesis tests that call it pass vacuously.
    message, _ = _fire(monkeypatch, key)
    assert isinstance(message, str) and WITNESSES[key][2] in message


def _counterexample_returns() -> dict[str, list[int]]:
    """Lines of each public predicate's ``return``s of a message, read from phfe/verify.py."""
    def gives_message(node):
        return isinstance(node, ast.Return) and ast.unparse(node) not in ("return", "return None")

    tree = ast.parse(Path(verify.__file__).read_text())
    return {
        node.name: sorted(r.lineno for r in ast.walk(node) if gives_message(r))
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.returns is not None
        and ast.unparse(node.returns) == "str | None"
    }


def test_every_counterexample_branch_has_one_witness():
    # A branch added without a witness row fails here, and so does a row
    # that reaches a branch another row already covers.
    fired: dict[str, list[tuple[int, str, str]]] = {}
    for key, (_, _, fragment) in WITNESSES.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            message, line = _fire(monkeypatch, key)
        fired.setdefault(key.partition("-")[0], []).append((line, fragment, message))
    returns = _counterexample_returns()
    assert sorted(fired) == sorted(returns)
    for name, rows in fired.items():
        assert sorted(line for line, _, _ in rows) == returns[name], name
        for line, fragment, _ in rows:  # each fragment is only in its own branch's message
            assert [other for other, _, message in rows if fragment in message] == [line], name


def _refusing_pi(p, q):
    raise OutOfRangeError("no pi here")


def _overflowing_pi(p, q):
    raise OverflowError("math range error")


#: The one handler of run_axiom_suites, for a refusal and for an arithmetic error: (an
#: operation patched in that raises, the suite whose pass it fails, the seed of that pass in
#: a run with seed 7, the error's repr).
REFUSAL_WITNESSES = [
    (("pi", _refusing_pi), "pi symmetry and range", "7:4", "OutOfRangeError('no pi here')"),
    (("pi", _overflowing_pi), "pi symmetry and range", "7:4",
     "OverflowError('math range error')"),
]


def _refusal_handlers() -> list[int]:
    """First lines of the ``except (PhfeError, ArithmeticError)`` handlers in phfe/verify.py,
    read with ``ast``."""
    tree = ast.parse(Path(verify.__file__).read_text())
    return [
        node.body[0].lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and ast.unparse(node.type) == "(PhfeError, ArithmeticError)"
    ]


def test_the_refusal_branch_has_its_witness():
    # A check the library refuses, or one that fails with an arithmetic error, becomes the
    # counterexample of its pass's suites, quoting the error and the drawn inputs; each
    # witness run must reach the one handler.
    handlers = _refusal_handlers()
    assert len(handlers) == 1
    for (name, wrong), suite, seed, error in REFUSAL_WITNESSES:
        code, lines = verify.run_axiom_suites.__code__, set()

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(verify, name, wrong)
                results = verify.run_axiom_suites(7, 5)
        finally:
            sys.settrace(previous)
        assert set(handlers) <= lines
        rng = random.Random(seed)
        first_draw = (rng.uniform(1e-9, 1.0), rng.uniform(1e-9, 1.0))
        failed = {r.name: r.counterexample for r in results if not r.passed}
        assert failed == {suite: f"refused: {error} on {first_draw!r}"}


#: Rows that move a config id of the record, so the record's config ids are checked too.
RECORD_WITNESSES = {
    "range-config": ("entropy_range", (_PAIR, dict(_BASE, **{"r1:f1:bsum": 1.5})), "r1:f1:bsum"),
    "symmetry-config": (
        "complement_symmetry",
        (_PAIR, _PAIR, _BASE, dict(_BASE, **{"r1:f2:psum": _BASE["r1:f2:psum"] + 1e-9})),
        "r1:f2:psum entropy:",
    ),
}


@pytest.mark.parametrize("row", RECORD_WITNESSES.values(), ids=RECORD_WITNESSES)
def test_record_config_ids_are_checked(row):
    name, args, fragment = row
    message = getattr(verify, name)(*args)
    assert isinstance(message, str) and message.startswith(fragment)


def test_the_record_holds_the_public_measures_bit_for_bit():
    rng = random.Random("record")
    kernels = {
        **{k.label: (fuzziness_entropy, k) for k in (R1, R2)},
        **{k.label: (nonspecificity_entropy, k) for k in (F1, F2, F3)},
    }
    for a in verify._edge_elements() + [verify.random_phfe(rng) for _ in range(200)]:
        record = verify.base_entropies(a)
        want = {key: measure(a, kernel) for key, (measure, kernel) in kernels.items()}
        want.update((c.label, comprehensive_entropy(a, c)) for c in all_configs())
        assert list(record) == list(want)
        assert {k: v.hex() for k, v in record.items()} == {k: v.hex() for k, v in want.items()}


def test_each_combined_value_is_computed_once(monkeypatch):
    # base_entropies calls each combiner once; the predicates only read its record.
    calls = []

    def counted(theta, combine):
        return lambda xs, ys: calls.append(theta) or combine(xs, ys)

    theta = {name: counted(name, fn) for name, fn in verify._THETA.items()}
    monkeypatch.setattr(verify, "_THETA", theta)
    a, c = _PAIR, complement(_PAIR)
    base_a, base_c = verify.base_entropies(a), verify.base_entropies(c)
    assert calls == ["max", "psum", "bsum"] * 2
    calls.clear()
    assert verify.entropy_range(a, base_a) is None
    assert verify.combiner_ordering(a, base_a) is None
    assert verify.complement_symmetry(a, c, base_a, base_c) is None
    assert calls == []


def _unguarded_psum(xs, ys):
    return [x + y - x * y for x, y in zip(xs, ys)]


def _unclamped_bsum(xs, ys):
    return [x + y for x, y in zip(xs, ys)]


#: Wrong combiner tables, by the one suite that must catch each.
WRONG_THETAS = {
    "psum-without-guard": ({"psum": _unguarded_psum}, "combiner ordering"),
    "psum-bsum-swapped": (
        {"psum": verify._THETA["bsum"], "bsum": verify._THETA["psum"]}, "combiner ordering"
    ),
    "max-as-min": ({"max": lambda xs, ys: list(map(min, xs, ys))}, "theta contract"),
    "bsum-without-clamp": ({"bsum": _unclamped_bsum}, "entropy range"),
}


@pytest.mark.parametrize("change, suite", WRONG_THETAS.values(), ids=WRONG_THETAS)
def test_wrong_combiners_reach_the_corpus(monkeypatch, change, suite):
    # The corpus reads combined values from each element's record, so a
    # wrong combiner must still reach the suites through base_entropies.
    monkeypatch.setattr(verify, "_THETA", {**verify._THETA, **change})
    failed = [r.name for r in verify.run_axiom_suites(7, 60) if not r.passed]
    assert failed == [suite]
