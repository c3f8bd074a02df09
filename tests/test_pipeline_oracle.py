"""Independent straight-line recomputation of the TOPSIS pipeline.

Rebuilds weights, distances, and closeness for the bundled case study
from the oracle entropy functions alone (no library imports on the
reference side) and compares against the library end to end.
"""

import pytest

import oracle
from phfe import parse_decision_matrix, run_topsis
from phfe.reproduce import load_table

TOL = 1e-12


def _comp_entropy(values, weights):
    return oracle.theta_max(
        oracle.fuzziness(values, weights, oracle.r1),
        oracle.nonspecificity(values, weights, oracle.f1),
    )


def _distance(a, b):
    values, weights = oracle.hybrid(a, b)
    return 1.0 - _comp_entropy(values, weights)


def _reference_pipeline(cells):
    m, n = len(cells), len(cells[0])
    raw = []
    for j in range(n):
        mean = (
            sum(
                _comp_entropy([v for v, _ in cells[i][j]], [p for _, p in cells[i][j]])
                for i in range(m)
            )
            / m
        )
        raw.append(1.0 - mean)
    total = sum(raw)
    weights = [x / total for x in raw]
    pis, nis = [(1.0, 1.0)], [(0.0, 1.0)]
    d_plus, d_minus, scores = [], [], []
    for i in range(m):
        p = sum(weights[j] * _distance(cells[i][j], pis) for j in range(n))
        q = sum(weights[j] * _distance(cells[i][j], nis) for j in range(n))
        d_plus.append(p)
        d_minus.append(q)
        scores.append(q / (p + q))
    return raw, weights, d_plus, d_minus, scores


def test_case_study_pipeline_matches_reference():
    matrix = parse_decision_matrix(load_table(9)["matrix"])
    cells = [
        [[(v, p) for v, p in matrix.cells[i][j]] for j in range(4)]
        for i in range(3)
    ]
    raw, weights, d_plus, d_minus, scores = _reference_pipeline(cells)
    result = run_topsis(matrix)
    assert result.weights.raw == pytest.approx(raw, abs=TOL)
    assert result.weights.normalized == pytest.approx(weights, abs=TOL)
    assert result.d_plus == pytest.approx(d_plus, abs=TOL)
    assert result.d_minus == pytest.approx(d_minus, abs=TOL)
    assert result.closeness == pytest.approx(scores, abs=TOL)


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
    cells = [
        [[(v, p) for v, p in matrix.cells[i][j]] for j in range(2)]
        for i in range(2)
    ]
    raw, weights, _, _, _ = _reference_pipeline(cells)
    result = run_topsis(matrix)
    assert result.weights.raw == pytest.approx(raw, abs=TOL)
    # Cost criterion: the reference swaps the ideals by hand.
    pis = [[(1.0, 1.0)], [(0.0, 1.0)]]
    nis = [[(0.0, 1.0)], [(1.0, 1.0)]]
    for i in range(2):
        p = sum(weights[j] * _distance(cells[i][j], pis[j]) for j in range(2))
        q = sum(weights[j] * _distance(cells[i][j], nis[j]) for j in range(2))
        assert result.d_plus[i] == pytest.approx(p, abs=TOL)
        assert result.d_minus[i] == pytest.approx(q, abs=TOL)
