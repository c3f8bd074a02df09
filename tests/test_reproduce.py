import copy

import pytest

from phfe import parse_decision_matrix
from phfe.reproduce import _table9_block, load_table


def _table9_check(spec, matrix):
    (check,) = _table9_block(spec, matrix).checks
    assert check.grade == "accept"
    return check


@pytest.fixture
def case_study():
    spec = load_table(9)
    return spec, parse_decision_matrix(spec["matrix"])


def test_table9_gate_holds_on_the_bundled_case_study(case_study):
    spec, matrix = case_study
    assert _table9_check(spec, matrix).ok


def test_table9_gate_ignores_zero_probability_terms(case_study):
    spec, matrix = case_study
    spec = copy.deepcopy(spec)
    spec["matrix"]["cells"][0][0]["terms"][0] = {"t": 6, "p": 0.0}
    assert _table9_check(spec, matrix).ok


@pytest.mark.parametrize(
    "edit",
    [
        lambda cells: cells[1][2]["terms"][0].update(t=0),
        lambda cells: cells[0][0]["terms"][0].update(t=6, p=0.1),
        lambda cells: cells[2].pop(),
        lambda cells: cells.append(cells[0]),
    ],
    ids=["moved-value", "zero-probability-made-positive", "short-row", "extra-row"],
)
def test_table9_gate_fails_when_raw_cells_disagree_with_the_matrix(case_study, edit):
    spec, matrix = case_study
    spec = copy.deepcopy(spec)
    edit(spec["matrix"]["cells"])
    check = _table9_check(spec, matrix)
    assert not check.ok
    assert (check.label, check.detail) == (
        "matrix parses and canonicalizes",
        "3x4 grid, all cells canonical",
    )
