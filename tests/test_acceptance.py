"""Acceptance gate: one test per stated criterion, tolerances pinned.

Each test prints a one-line verdict so the suite doubles as a checklist.
Three assertions are expected to fail and are left failing on purpose:
the comprehensive-entropy anchors of criterion 5 and the published
case-study rankings of criterion 8 descend from non-specificity values
that contradict the published defining formula (see the "known
deviations" section of the README and the reproduction report).  The
formulas are implemented exactly as published, so those published
numbers are unreachable by construction, not by defect of this library.
"""

import itertools

import pytest

import oracle
from phfe import (
    EntropyConfig,
    F1,
    F2,
    F3,
    R1,
    R2,
    all_configs,
    canonicalize,
    comprehensive_entropy,
    entropy_weights,
    fuzziness_entropy,
    nonspecificity_entropy,
    parse_decision_matrix,
    run_topsis,
    su_entropy_d,
    su_entropy_p1,
    su_entropy_p2,
)
from phfe.reproduce import load_table
from phfe.verify import run_axiom_suites

SEED = 42
SAMPLES = 10_000

H1 = canonicalize([(0.7, 0.2), (0.9, 0.8)])
H2 = canonicalize([(0.6, 0.9), (0.9, 0.1)])
H3 = canonicalize([(0.6, 0.1), (0.9, 0.9)])
NARROW = canonicalize([(0.4, 0.5), (0.6, 0.5)])
WIDE = canonicalize([(0.2, 0.5), (0.8, 0.5)])


@pytest.fixture(scope="module")
def suites():
    results = run_axiom_suites(SEED, SAMPLES)
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def case_study():
    return parse_decision_matrix(load_table(9)["matrix"])


def _verdict(label: str, checks) -> None:
    try:
        checks()
    except AssertionError:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_01_fuzziness_row():
    def checks():
        assert fuzziness_entropy(H1, R1) == pytest.approx(0.1513, abs=5e-4)
        assert fuzziness_entropy(H2, R1) == pytest.approx(0.3488, abs=5e-4)
        assert fuzziness_entropy(H3, R1) == pytest.approx(0.1945, abs=5e-4)

    _verdict("criterion 1: published fuzziness row reproduced at 5e-4", checks)


def test_criterion_02_baseline_rows():
    def checks():
        assert su_entropy_p1(H1) == pytest.approx(0.551, abs=1e-3)
        assert su_entropy_p1(H2) == pytest.approx(0.921, abs=1e-3)
        assert su_entropy_p1(H3) == pytest.approx(0.519, abs=1e-3)
        assert su_entropy_p2(H1) == pytest.approx(0.466, abs=1e-3)
        assert su_entropy_p2(H2) == pytest.approx(0.903, abs=1e-3)
        assert su_entropy_p2(H3) == pytest.approx(0.430, abs=1e-3)

    _verdict("criterion 2: published baseline rows reproduced at 1e-3", checks)


def test_criterion_03_orderings():
    def checks():
        for kernel in (R1, R2):
            values = [fuzziness_entropy(h, kernel) for h in (H1, H2, H3)]
            assert values[1] > values[2] > values[0]  # h2 > h3 > h1
        for fn in (su_entropy_p1, su_entropy_p2):
            values = [fn(h) for h in (H1, H2, H3)]
            assert values[1] > values[0] > values[2]  # h2 > h1 > h3

    _verdict("criterion 3: fuzziness and baseline ranking orders", checks)


def test_criterion_04_spread_discrimination():
    def checks():
        for kernel in (F1, F2, F3):
            assert nonspecificity_entropy(NARROW, kernel) < nonspecificity_entropy(
                WIDE, kernel
            )
        assert su_entropy_d(NARROW) == 1.0
        assert su_entropy_d(WIDE) == 1.0

    _verdict(
        "criterion 4: non-specificity separates what the baseline cannot", checks
    )


def test_criterion_05_comprehensive_anchors():
    # Implemented exactly as stated.  With the published non-specificity
    # formula, the off-diagonal term already exceeds every anchor
    # (e.g. the h2 anchor 0.3488 against a non-specificity of 0.5387),
    # so these assertions cannot hold; the README deviations section
    # carries the analysis.  The test stays faithful rather than loosened.
    def checks():
        config = EntropyConfig(R1, F1)
        assert comprehensive_entropy(H2, config) == pytest.approx(0.3488, abs=5e-4)
        assert comprehensive_entropy(H3, config) == pytest.approx(0.1945, abs=5e-4)
        assert comprehensive_entropy(NARROW, config) == pytest.approx(0.4126, abs=5e-4)

    _verdict("criterion 5: published comprehensive anchors", checks)


def test_criterion_06_axiom_suites(suites):
    def checks():
        for name in (
            "entropy range",
            "complement symmetry",
            "boundary exactness",
            "combiner ordering",
            "fuzziness monotonicity",
            "nonspecificity monotonicity",
        ):
            assert suites[name].passed, suites[name].counterexample

    _verdict(
        f"criterion 6: axiom suites over {SAMPLES} seeded random elements", checks
    )


def test_criterion_07_distance_suites(suites):
    def checks():
        for name in (
            "distance symmetry and range",
            "singleton self-distance",
            "psi endpoint agreement",
            "multi-valued self-distance stays positive (documented)",
        ):
            assert suites[name].passed, suites[name].counterexample

    _verdict(
        f"criterion 7: distance properties over {SAMPLES} seeded random pairs", checks
    )


def test_criterion_08a_case_study_weights(case_study):
    def checks():
        weights = entropy_weights(case_study, EntropyConfig(R1, F1))
        assert case_study.criteria[weights.argmax].name == "c3"
        assert sum(weights.normalized) == pytest.approx(1.0, abs=1e-9)

    _verdict("criterion 8a: case-study weights peak at c3 and sum to one", checks)


def test_criterion_08b_case_study_default_ranking(case_study):
    # Faithful to the stated criterion.  The published ranking descends
    # from the non-reproducible non-specificity values; with the
    # formulas as published the recomputed ranking is x3, then x1 = x2
    # at exactly 1/2, kept in input order (see the reproduction report),
    # so this assertion fails by construction and is left red deliberately.
    def checks():
        result = run_topsis(case_study, EntropyConfig(R1, F1))
        ranking = [case_study.alternatives[i] for i in result.ranking]
        assert ranking == ["x1", "x3", "x2"]

    _verdict("criterion 8b: published case-study ranking x1 > x3 > x2", checks)


def test_criterion_08c_case_study_top_choice_all_configs(case_study):
    # Same documented root cause as 8b; recomputation puts x3 on top in
    # all 18 configurations, so this stays red deliberately.
    def checks():
        for config in all_configs():
            result = run_topsis(case_study, config)
            top = case_study.alternatives[result.ranking[0]]
            assert top == "x1", f"{config.label} ranks {top} first"

    _verdict("criterion 8c: x1 ranks first under all 18 configurations", checks)


def test_criterion_09_oracle_equivalence():
    def checks():
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        elements = []
        for length in (1, 2, 3):
            for values in itertools.combinations(grid, length):
                for parts in itertools.product(range(1, 5), repeat=length):
                    if sum(parts) == 4:
                        probs = tuple(p / 4 for p in parts)
                        elements.append(canonicalize(list(zip(values, probs))))
        oracle_r = {"r1": oracle.r1, "r2": oracle.r2}
        oracle_f = {"f1": oracle.f1, "f2": oracle.f2, "f3": oracle.f3}
        oracle_t = {
            "max": oracle.theta_max,
            "psum": oracle.theta_psum,
            "bsum": oracle.theta_bsum,
        }
        lib_r = {"r1": R1, "r2": R2}
        lib_f = {"f1": F1, "f2": F2, "f3": F3}
        for a in elements:
            values, probs = list(a.values), list(a.probs)
            for rid, r_fn in oracle_r.items():
                assert abs(
                    fuzziness_entropy(a, lib_r[rid]) - oracle.fuzziness(values, probs, r_fn)
                ) <= 1e-12
            for fid, f_fn in oracle_f.items():
                assert abs(
                    nonspecificity_entropy(a, lib_f[fid])
                    - oracle.nonspecificity(values, probs, f_fn)
                ) <= 1e-12
            for config in all_configs():
                expected = oracle.comprehensive(
                    values,
                    probs,
                    oracle_r[config.fuzziness.variant],
                    oracle_f[config.nonspecificity.variant],
                    oracle_t[config.theta.variant],
                )
                assert abs(comprehensive_entropy(a, config) - expected) <= 1e-12

    _verdict("criterion 9: brute-force oracle agreement to 1e-12", checks)
