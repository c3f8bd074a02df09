"""Exhaustive agreement between the library and the independent oracle.

Enumerates every canonical element of length one to three whose values
come from the five-point grid {0, 0.25, 0.5, 0.75, 1} and whose
probability vector is a composition of quarters, then compares all
entropy measures against the direct-summation reference in oracle.py.
"""

import ast
import itertools
from pathlib import Path

import pytest

import oracle
from phfe import (
    ALL_PSI,
    EntropyConfig,
    all_configs,
    canonicalize,
    comprehensive_entropy,
    entropy_components,
    entropy_distance,
    fuzziness_entropy,
    hybrid,
    nonspecificity_entropy,
    parse_measure,
    weighted_comprehensive,
)
from support import oracle_config, oracle_fn

VALUE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

TOL = 1e-12


def quarter_simplexes(length):
    """All probability vectors with positive multiples of 1/4 summing to 1."""
    for parts in itertools.product(range(1, 5), repeat=length):
        if sum(parts) == 4:
            yield tuple(p / 4 for p in parts)


def grid_elements():
    for length in (1, 2, 3):
        for values in itertools.combinations(VALUE_GRID, length):
            for probs in quarter_simplexes(length):
                yield canonicalize(list(zip(values, probs)))


ELEMENTS = list(grid_elements())


def test_grid_is_nontrivial():
    assert len(ELEMENTS) == 5 * 1 + 10 * 3 + 10 * 3


def test_the_oracle_imports_only_math_and_decimal():
    # The reference stays independent of the package under test: it imports no
    # phfe module, directly or relatively, and loads nothing by name at run time.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "decimal"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"__import__", "importlib", "exec", "eval", "phfe"}


@pytest.mark.parametrize("kernel_id", ["r1", "r1@r=2", "r2"])
def test_fuzziness_matches_oracle(kernel_id):
    kernel = parse_measure(kernel_id)
    reference = oracle_fn(kernel)
    for a in ELEMENTS:
        expected = oracle.fuzziness(list(a.values), list(a.probs), reference)
        assert fuzziness_entropy(a, kernel) == pytest.approx(expected, abs=TOL), repr(a)


@pytest.mark.parametrize("kernel_id", ["f1", "f2", "f3"])
def test_nonspecificity_matches_oracle(kernel_id):
    kernel = parse_measure(kernel_id)
    reference = oracle_fn(kernel)
    for a in ELEMENTS:
        expected = oracle.nonspecificity(list(a.values), list(a.probs), reference)
        assert nonspecificity_entropy(a, kernel) == pytest.approx(expected, abs=TOL), repr(a)


def test_comprehensive_matches_oracle_for_all_configs():
    for config in all_configs():
        reference = oracle_config(config)
        for a, b in zip(ELEMENTS, reversed(ELEMENTS)):
            expected = oracle.comprehensive(list(a.values), list(a.probs), *reference)
            got = comprehensive_entropy(a, config)
            assert got == pytest.approx(expected, abs=TOL), f"{config.label} on {a!r}"
            # The one-pass components equal the single-kernel measures exactly.
            components = entropy_components(a, config)
            assert components == (
                fuzziness_entropy(a, config.fuzziness),
                nonspecificity_entropy(a, config.nonspecificity),
            ), f"{config.label} on {a!r}"
            assert got == config.theta.combine(*components), f"{config.label} on {a!r}"
            # The distance is one minus psi of its hybrid's entropy, exactly:
            # the axiom harness takes one side of its symmetry check from it.
            values, weights = hybrid(a, b)
            for psi in ALL_PSI:
                by_definition = 1.0 - psi(weighted_comprehensive(values, weights, config))
                assert entropy_distance(a, b, psi, config) == by_definition, (
                    f"{config.label}, {psi.label} on {a!r}, {b!r}"
                )


def test_comprehensive_matches_oracle_with_exponent():
    config = EntropyConfig.from_string("r1:f2:psum@r=2")
    for a in ELEMENTS:
        expected = oracle.comprehensive(list(a.values), list(a.probs), *oracle_config(config))
        assert comprehensive_entropy(a, config) == pytest.approx(expected, abs=TOL)
