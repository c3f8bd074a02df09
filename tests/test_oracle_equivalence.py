"""Exhaustive agreement between the library and the independent oracle.

Enumerates every canonical element of length one to three whose values
come from the five-point grid {0, 0.25, 0.5, 0.75, 1} and whose
probability vector is a composition of quarters, then compares all
entropy measures against the direct-summation reference in oracle.py.
"""

import itertools

import pytest

import oracle
from phfe import (
    ALL_PSI,
    EntropyConfig,
    F1,
    F2,
    F3,
    FuzzinessKernel,
    R1,
    R2,
    all_configs,
    canonicalize,
    comprehensive_entropy,
    entropy_components,
    entropy_distance,
    fuzziness_entropy,
    hybrid,
    nonspecificity_entropy,
    weighted_comprehensive,
)

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

ORACLE_R = {
    "r1": oracle.r1,
    "r1@r=2": lambda x, y: oracle.r1(x, y, 2.0),
    "r2": oracle.r2,
}
ORACLE_F = {"f1": oracle.f1, "f2": oracle.f2, "f3": oracle.f3}
ORACLE_THETA = {
    "max": oracle.theta_max,
    "psum": oracle.theta_psum,
    "bsum": oracle.theta_bsum,
}
LIB_R = {
    "r1": R1,
    "r1@r=2": FuzzinessKernel("r1", 2.0),
    "r2": R2,
}
LIB_F = {"f1": F1, "f2": F2, "f3": F3}


def test_grid_is_nontrivial():
    assert len(ELEMENTS) == 5 * 1 + 10 * 3 + 10 * 3


@pytest.mark.parametrize("kernel_id", sorted(ORACLE_R))
def test_fuzziness_matches_oracle(kernel_id):
    kernel = LIB_R[kernel_id]
    reference = ORACLE_R[kernel_id]
    for a in ELEMENTS:
        expected = oracle.fuzziness(list(a.values), list(a.probs), reference)
        assert fuzziness_entropy(a, kernel) == pytest.approx(expected, abs=TOL), repr(a)


@pytest.mark.parametrize("kernel_id", sorted(ORACLE_F))
def test_nonspecificity_matches_oracle(kernel_id):
    kernel = LIB_F[kernel_id]
    reference = ORACLE_F[kernel_id]
    for a in ELEMENTS:
        expected = oracle.nonspecificity(list(a.values), list(a.probs), reference)
        assert nonspecificity_entropy(a, kernel) == pytest.approx(expected, abs=TOL), repr(a)


def test_comprehensive_matches_oracle_for_all_configs():
    for config in all_configs():
        reference_r = ORACLE_R[
            "r1" if config.fuzziness.variant == "r1" else "r2"
        ]
        reference_f = ORACLE_F[config.nonspecificity.variant]
        reference_t = ORACLE_THETA[config.theta.variant]
        for a, b in zip(ELEMENTS, reversed(ELEMENTS)):
            expected = oracle.comprehensive(
                list(a.values), list(a.probs), reference_r, reference_f, reference_t
            )
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
            h = hybrid(a, b)
            for psi in ALL_PSI:
                by_definition = 1.0 - psi(weighted_comprehensive(h.values, h.weights, config))
                assert entropy_distance(a, b, psi, config) == by_definition, (
                    f"{config.label}, {psi.label} on {a!r}, {b!r}"
                )


def test_comprehensive_matches_oracle_with_exponent():
    config = EntropyConfig.from_string("r1:f2:psum@r=2")
    for a in ELEMENTS:
        expected = oracle.comprehensive(
            list(a.values),
            list(a.probs),
            ORACLE_R["r1@r=2"],
            oracle.f2,
            oracle.theta_psum,
        )
        assert comprehensive_entropy(a, config) == pytest.approx(expected, abs=TOL)
