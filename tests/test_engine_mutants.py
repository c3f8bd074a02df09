"""Wrong engines must fail a named gate.

Each mutant is patched for one test, in-process, into the batched TOPSIS pass
(``phfe.entropy._STEPS``, or ``mcdm._columns`` without the {0|1} lane's weight
reversal), into the scalar element pass (the r1 kernel, or ``phfe.entropy._pairwise``),
into both passes (the ``l(l+1)`` non-specificity divisor), into the combiners (psum and
bsum swapped), into ``pi`` (its equality branch dropped wherever the engine reads
``_pi_fast`` or ``_pi_column``) or into ``hybrid`` (sorted by value only).  A mutant of
one expression recompiles the engine's function from its source with that expression
replaced.  The gates are the oracle pipeline check, the pinned ``phfe reproduce``
digest, a 300-sample axiom run, the closed-form boundary check and bit symmetry of
``entropy_distance`` on the 1/4 grid.  A gate fails by returning False, or where the
library refuses a value the wrong engine made.  The unpatched engine passes every gate,
and each mutant is pinned to the gates it fails.
"""

import hashlib
import inspect
import itertools
import random

import pytest

import oracle
import phfe.distance
import phfe.elements
import phfe.entropy
import phfe.mcdm
import phfe.verify
from phfe import (
    R1, THETA_BSUM, THETA_PSUM, CriterionSpec, DecisionMatrix, EntropyConfig, entropy_distance,
    parse_decision_matrix, run_topsis,
)
from phfe.elements import _pi_fast
from phfe.errors import PhfeError
from phfe.reproduce import load_table
from phfe.verify import boundary_exactness, random_phfe, run_axiom_suites
from support import grid_elements, oracle_config, run_cli

REPRODUCE_SHA256 = "360748d3c6c862c9e19afaedf0e43c9a4047afdcb9d364083eefee7ee1012514"


def _seeded_matrix():
    rng = random.Random("mutants")
    return DecisionMatrix(
        tuple(f"x{i}" for i in range(6)),
        (CriterionSpec("c1"), CriterionSpec("c2", "cost"), CriterionSpec("c3")),
        tuple(tuple(random_phfe(rng) for _ in range(3)) for _ in range(6)),
    )


def _oracle_gate():
    """run_topsis within 1e-12 of tests/oracle.py on the case study and a seeded matrix."""
    for matrix in (parse_decision_matrix(load_table(9)["matrix"]), _seeded_matrix()):
        cells = [[list(cell) for cell in row] for row in matrix.cells]
        kinds = [c.kind for c in matrix.criteria]
        for label in ("r1:f1:max", "r1:f2:psum@r=2", "r2:f3:max"):
            config = EntropyConfig.from_string(label)
            result = run_topsis(matrix, config)
            want = oracle.topsis(cells, kinds, *oracle_config(config))
            got = (result.weights.raw, result.weights.normalized, result.d_plus,
                   result.d_minus, result.closeness)
            for xs, ys in zip(got, want):
                if any(abs(x - y) > 1e-12 for x, y in zip(xs, ys)):
                    return False
    return True


def _reproduce_gate():
    """`phfe reproduce` prints the pinned report, byte for byte."""
    return hashlib.sha256(run_cli(["reproduce"])[1].encode()).hexdigest() == REPRODUCE_SHA256


def _axioms_gate():
    """`run_axiom_suites(7, 300)` passes every suite: the element-level gate."""
    return all(suite.passed for suite in run_axiom_suites(7, 300))


def _boundary_gate():
    """The measures hit their closed forms at the distinguished elements."""
    return boundary_exactness() is None


QUARTER_PAIRS = list(itertools.combinations(grid_elements(4), 2))
SYMMETRY_CONFIGS = [EntropyConfig.from_string(label) for label in ("r1:f1:max", "r1:f2:psum")]


def _symmetry_gate():
    """entropy_distance(a, b) == entropy_distance(b, a) bit for bit on the 2 080 pairs of the
    1/4 grid under r1:f1:max and r1:f2:psum."""
    return all(
        entropy_distance(a, b, config=config) == entropy_distance(b, a, config=config)
        for config in SYMMETRY_CONFIGS
        for a, b in QUARTER_PAIRS
    )


GATES = {
    "oracle": _oracle_gate,
    "reproduce digest": _reproduce_gate,
    "axioms": _axioms_gate,
    "boundary": _boundary_gate,
    "symmetry": _symmetry_gate,
}


def _r1_sign_flipped():
    """(scalar kernel, column step) compiled from the table's r1 with 1.0 + 4.0 * p where the
    kernel has 1.0 - 4.0 * p; the module's own _r1 and _r1_step stay bound."""
    bindings, expression = phfe.entropy._KERNELS["r1"]
    assert expression.count("1.0 - 4.0 * p") == 1
    flipped = expression.replace("1.0 - 4.0 * p", "1.0 + 4.0 * p")
    return phfe.entropy._compile("r1", bindings, flipped)


def _without_diagonal(step):
    # The diagonal step is the only one that passes one value column as both xs and ys.
    def mutant(totals, xs, ys, ws, r):
        return totals if xs is ys else step(totals, xs, ys, ws, r)

    return mutant


def _scalar_without_diagonal(values, weights, fuzz, nonspec):
    # _pairwise with only its j > i terms: the j == i fuzziness term is gone.
    r_fn, r, f_fn = fuzz._fn, fuzz.r, nonspec._fn
    l = len(values)
    fuzz_total = ns_total = 0.0
    for i in range(l):
        for j in range(i + 1, l):
            w = _pi_fast(weights[i], weights[j])
            fuzz_total += r_fn(values[i], values[j], r) * w
            ns_total += f_fn(values[i], values[j]) ** w
    return 2.0 * fuzz_total / (l * (l + 1)), 2.0 * ns_total / max(2, l * (l - 1))


def _pi_without_equality(p, q):
    # pi's |p - q| alone: probabilities within 1e-12 of each other weigh 0, not their mean.
    return abs(p - q)


def _pi_column_without_equality(ps, qs):
    return [abs(p - q) for p, q in zip(ps, qs)]


def _rewritten(module, name, old, new):
    """``module.<name>`` recompiled from its source with the one ``old`` replaced by ``new``."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    scope = {}
    exec(source.replace(old, new), vars(module), scope)
    return scope[name]


def _divisor_l_l_plus_1():
    # Non-specificity scaled by 2 / (l (l + 1)), the fuzziness divisor, in both passes.
    scalar, batched = (
        _rewritten(phfe.entropy, name, "max(2, l * (l - 1))", "(l * (l + 1))")
        for name in ("_pairwise", "_pairwise_columns")
    )
    return [
        (vars(phfe.entropy), "_pairwise", scalar),
        (vars(phfe.entropy), "_pairwise_columns", batched),
        (vars(phfe.mcdm), "_pairwise_columns", batched),
    ]


def _hybrid_by_value():
    # sorted() keyed on the value alone: entries of one value keep the order they were built in.
    by_value = _rewritten(phfe.distance, "hybrid", "    ))))", "    ), key=lambda e: e[0])))")
    return [(vars(module), "hybrid", by_value) for module in (phfe.distance, phfe.verify)]


#: name -> (object, key, wrong value) patches; the scalar r1 is read from the R1 kernel
#: and, for a kernel built by id, from the _FUZZINESS table.
MUTANTS = {
    "r1-sign": lambda: [(phfe.entropy._STEPS, "r1", _r1_sign_flipped()[1])],
    "no-diagonal": lambda: [
        (phfe.entropy._STEPS, k, _without_diagonal(phfe.entropy._STEPS[k])) for k in ("r1", "r2")
    ],
    "scalar-r1-sign": lambda: [
        (table, key, _r1_sign_flipped()[0])
        for table, key in ((R1.__dict__, "_fn"), (phfe.entropy._FUZZINESS, "r1"))
    ],
    "scalar-no-diagonal": lambda: [(vars(phfe.entropy), "_pairwise", _scalar_without_diagonal)],
    "psum-bsum-swapped": lambda: [
        (phfe.entropy._THETA, "psum", phfe.entropy._bsum),
        (phfe.entropy._THETA, "bsum", phfe.entropy._psum),
        (THETA_PSUM.__dict__, "_fn", phfe.entropy._bsum),
        (THETA_BSUM.__dict__, "_fn", phfe.entropy._psum),
    ],
    "pi-no-equality": lambda: [
        (vars(module), name, wrong)
        for module in (phfe.elements, phfe.entropy, phfe.distance, phfe.mcdm)
        for name, wrong in (("_pi_fast", _pi_without_equality),
                            ("_pi_column", _pi_column_without_equality))
        if name in vars(module)
    ],
    "ideal-weights-not-reversed": lambda: [
        (vars(phfe.mcdm), "_columns",
         _rewritten(phfe.mcdm, "_columns", "zip(ps, ws, ws[::-1])", "zip(ps, ws, ws)")),
    ],
    "ns-divisor-l(l+1)": _divisor_l_l_plus_1,
    "hybrid-by-value": _hybrid_by_value,
}


def _fails(gate):
    """A gate fails by returning False, or where the library refuses what a wrong engine made."""
    try:
        return not gate()
    except PhfeError:
        return True


def _failing_gates():
    return [name for name, gate in GATES.items() if _fails(gate)]


def test_the_engine_passes_every_gate():
    assert _failing_gates() == []


@pytest.mark.parametrize(
    "mutant, caught_by",
    [
        ("r1-sign", ["oracle", "reproduce digest", "axioms"]),
        ("no-diagonal", ["oracle", "reproduce digest", "axioms"]),
        ("scalar-r1-sign", ["reproduce digest", "axioms", "boundary"]),
        ("scalar-no-diagonal", ["reproduce digest", "axioms", "boundary"]),
        ("psum-bsum-swapped", ["oracle", "reproduce digest", "axioms"]),
        ("pi-no-equality", ["oracle", "reproduce digest", "axioms", "boundary", "symmetry"]),
        ("ideal-weights-not-reversed", ["oracle", "reproduce digest", "axioms"]),
        ("ns-divisor-l(l+1)", ["oracle", "reproduce digest", "axioms", "boundary"]),
        ("hybrid-by-value", ["symmetry"]),
    ],
)
def test_a_named_gate_fails_on_each_mutant(monkeypatch, mutant, caught_by):
    for table, key, wrong in MUTANTS[mutant]():
        monkeypatch.setitem(table, key, wrong)
    assert _failing_gates() == caught_by


#: The suites whose checks the library refuses under pi-no-equality: pi(p, p) is 0, a
#: hybrid or TOPSIS weight of 0 is refused, and each suite reports the refusal.
REFUSED_SUITES = [
    "distance symmetry and range",
    "psi endpoint agreement",
    "singleton self-distance",
    "weights and closeness",
    "multi-valued self-distance stays positive (documented)",
]


def test_a_refused_check_fails_its_suites(monkeypatch):
    for table, key, wrong in MUTANTS["pi-no-equality"]():
        monkeypatch.setitem(table, key, wrong)
    refusal = "refused: OutOfRangeError('weight 0.0 outside (0, 1]') on ("
    results = run_axiom_suites(7, 300)  # returns: the refusal does not escape the run
    refused = [r.name for r in results if (r.counterexample or "").startswith(refusal)]
    assert refused == REFUSED_SUITES
    code, out, _ = run_cli(["axioms", "--seed", "7", "--samples", "60"])
    assert code == 1  # not 2: no error escapes
    lines = out.splitlines()
    failed = {  # suite name -> the counterexample printed under its [FAIL] line
        line.removeprefix("[FAIL] ").rpartition(" (")[0]: text.split("counterexample: ")[1]
        for line, text in zip(lines, lines[1:])
        if line.startswith("[FAIL]")
    }
    assert [name for name, text in failed.items() if text.startswith(refusal)] == REFUSED_SUITES
    # The boundary suite fails on its own value, with nothing refused.
    assert failed["boundary exactness"] == "fuzziness({0|0.5, 1|0.5}) = 0.0"
    # The pi suite draws equal probabilities too, so the missing equality branch shows there.
    assert failed["pi symmetry and range"] == (
        "pi(0.4541251251364349, 0.4541251251364349) = 0.0 outside (0, 1]"
    )


def test_an_arithmetic_error_fails_its_suites(monkeypatch):
    # _pairwise's non-specificity divisor without its parentheses: a hybrid's entropy far
    # above 1 makes PSI_EXP_TILT overflow math.exp inside the distance pass.
    wrong = _rewritten(phfe.entropy, "_pairwise", "2.0 * ns_total / max(2, l * (l - 1))",
                       "2.0 * ns_total / l * (l + 1)")
    monkeypatch.setitem(vars(phfe.entropy), "_pairwise", wrong)
    results = run_axiom_suites(7, 300)  # returns: the OverflowError does not escape the run
    failed = {r.name: r.counterexample for r in results if not r.passed}
    assert list(failed) == [
        "entropy range", "combiner ordering", "distance symmetry and range",
        "psi endpoint agreement", "weights and closeness", "boundary exactness",
        "multi-valued self-distance stays positive (documented)",
    ]
    assert failed["psi endpoint agreement"].startswith(
        "refused: OverflowError('math range error') on ("
    )
