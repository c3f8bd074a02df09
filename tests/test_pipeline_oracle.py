"""Independent straight-line recomputation of the TOPSIS pipeline.

Rebuilds weights, distances, and closeness from ``oracle.topsis`` alone
(no library imports on the reference side) and compares against the
library end to end.
"""

from decimal import Decimal, localcontext

import pytest

import oracle
from phfe import EntropyConfig, all_configs, parse_decision_matrix, run_topsis
from phfe.reproduce import load_table
from support import oracle_config

TOL = 1e-12


def _assert_matches(matrix, config, reference):
    raw, weights, d_plus, d_minus, scores = reference
    result = run_topsis(matrix, config)
    assert result.weights.raw == pytest.approx(raw, abs=TOL)
    assert result.weights.normalized == pytest.approx(weights, abs=TOL)
    assert result.d_plus == pytest.approx(d_plus, abs=TOL)
    assert result.d_minus == pytest.approx(d_minus, abs=TOL)
    assert result.closeness == pytest.approx(scores, abs=TOL)


def _oracle_input(matrix):
    cells = [[list(cell) for cell in row] for row in matrix.cells]
    return cells, [c.kind for c in matrix.criteria]


@pytest.mark.parametrize("label", [c.label for c in all_configs()])
def test_case_study_pipeline_matches_reference(label):
    matrix = parse_decision_matrix(load_table(9)["matrix"])
    config = EntropyConfig.from_string(label)
    _assert_matches(matrix, config, oracle.topsis(*_oracle_input(matrix), *oracle_config(config)))


def test_two_by_two_pipeline_matches_reference():
    payload = {
        "criteria": [
            {"name": "quality", "kind": "benefit"},
            {"name": "cost", "kind": "cost"},
        ],
        "alternatives": ["a", "b"],
        "cells": [
            [
                {"pairs": [{"v": 0.25, "p": 0.5}, {"v": 0.75, "p": 0.5}]},
                {"pairs": [{"v": 0.375, "p": 1.0}]},
            ],
            [
                {"pairs": [{"v": 0.5, "p": 0.25}, {"v": 0.875, "p": 0.75}]},
                {"pairs": [{"v": 0.125, "p": 0.625}, {"v": 0.625, "p": 0.375}]},
            ],
        ],
    }
    matrix = parse_decision_matrix(payload)
    config = EntropyConfig.from_string("r1:f1:max")
    _assert_matches(matrix, config, oracle.topsis(*_oracle_input(matrix), *oracle_config(config)))


#: Case-study alternatives (by index) at closeness 1/2 in exact arithmetic, under each max
#: config (README deviation 4): x1 under the f1 and f2 configs, x2 under all but r1:f2:max.
EXACT_TIES = {
    "r1:f1:max": [0, 1], "r1:f2:max": [0], "r1:f3:max": [],
    "r2:f1:max": [0, 1], "r2:f2:max": [0, 1], "r2:f3:max": [],
}


@pytest.mark.parametrize("label, tied", EXACT_TIES.items(), ids=EXACT_TIES)
def test_case_study_ties_hold_at_40_digits(label, tied):
    # The oracle in 40-digit decimal arithmetic on the exact values of the case study's floats:
    # a tie is exact, not two roundings that meet, and the float closeness is that exact value.
    matrix = parse_decision_matrix(load_table(9)["matrix"])
    cells, kinds = _oracle_input(matrix)
    config = EntropyConfig.from_string(label)
    with localcontext() as ctx:
        ctx.prec = 40
        cells = [[[(Decimal(v), Decimal(p)) for v, p in cell] for cell in row] for row in cells]
        exact = oracle.topsis(cells, kinds, *oracle_config(config))[4]
    assert [i for i, c in enumerate(exact) if abs(c - Decimal("0.5")) < Decimal("1e-35")] == tied
    got = run_topsis(matrix, config).closeness
    assert max(abs(Decimal(g) - c) for g, c in zip(got, exact)) < Decimal("1e-15")
