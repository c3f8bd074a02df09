"""The jump at the equality branch of ``pi``, counted on the 1/8 grid and the case study.

``pi(p, q)`` is the mean (p + q) / 2 when |p - q| <= ``PI_EQ_TOL`` and |p - q| otherwise, so a
pair weight drops from about p to about 0 when two equal probabilities move apart.  These tests
pin what that does to the measures and to the case study; README "The jump at pi's equality
branch" states the same numbers.  No formula changes: the branch stays as published.
"""

import copy
import statistics

import pytest

from phfe import (
    EntropyConfig,
    all_configs,
    canonicalize,
    comprehensive_entropy,
    entropy_components,
    entropy_weights,
    parse_decision_matrix,
    run_topsis,
)
from phfe.reproduce import load_table
from support import grid_elements

ELEMENTS = grid_elements(8)


def _equal_pair(a):
    """The indices of the one pair of equal probabilities of a grid element, or None."""
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if a.probs[i] == a.probs[j]]
    assert len(pairs) <= 1  # probabilities in quarters, at most three of them
    return pairs[0] if pairs else None


def _moved_apart(a):
    i, j = _equal_pair(a)
    probs = list(a.probs)
    probs[i] -= 1e-9
    probs[j] += 1e-9
    return canonicalize(zip(a.values, probs))


def test_most_grid_elements_sit_on_the_branch():
    assert len(ELEMENTS) == 369
    assert sum(_equal_pair(a) is not None for a in ELEMENTS) == 288


def test_moving_an_equal_pair_1e9_apart_moves_every_measure():
    held = [a for a in ELEMENTS if _equal_pair(a) is not None]
    moves = {
        config.label: [
            abs(comprehensive_entropy(_moved_apart(a), config) - comprehensive_entropy(a, config))
            for a in held
        ]
        for config in all_configs()
    }
    assert statistics.median(moves["r1:f1:max"]) == pytest.approx(0.047, abs=5e-4)
    assert max(moves["r1:f1:max"]) == pytest.approx(0.53, abs=5e-3)
    largest = max(moves, key=lambda label: max(moves[label]))
    assert largest == "r1:f3:max" and max(moves[largest]) == pytest.approx(0.77, abs=5e-3)
    a = held[moves[largest].index(max(moves[largest]))]
    assert repr(a) == "{0|0.5, 0.125|0.5}"
    config = EntropyConfig.from_string(largest)
    assert entropy_components(a, config)[1] == pytest.approx(0.228, abs=5e-4)
    assert entropy_components(_moved_apart(a), config)[1] == pytest.approx(1.0, abs=1e-8)


def _case_study(probs=None):
    """The case study, with cell (x3, c3) = {0.5|1/3, 0.667|1/3, 0.833|1/3} written with
    ``probs`` in place of its thirds."""
    document = copy.deepcopy(load_table(9)["matrix"])
    if probs is not None:
        cell = document["cells"][2][2]
        assert [term["t"] for term in cell["terms"]] == [3, 4, 5]
        cell["terms"] = [{"t": t, "p": p} for t, p in zip((3, 4, 5), probs)]
    return parse_decision_matrix(document)


@pytest.mark.parametrize("digits", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("config", ["r1:f1:max", "r2:f1:max", "r2:f2:max"])
def test_rounded_thirds_tie_the_case_study(digits, config):
    # Two of the cell's three pairs leave the branch, and x3 drops to exactly 1/2 with x1 and
    # x2, so x1 comes first only by input order.
    assert run_topsis(_case_study(), EntropyConfig.from_string(config)).ranking[0] == 2
    third = round(1 / 3, digits)  # (0.33, 0.33, 0.34) at two digits
    probs = (third, third, round(1 - 2 * third, digits))
    result = run_topsis(_case_study(probs), EntropyConfig.from_string(config))
    assert [x.hex() for x in result.closeness] == ["0x1.0000000000000p-1"] * 3
    assert result.ranking == (0, 1, 2)


def test_rounded_thirds_move_the_top_weight_off_c3():
    exact, rounded = _case_study(), _case_study((0.33, 0.33, 0.34))
    on_c3 = [config for config in all_configs() if entropy_weights(exact, config).argmax == 2]
    assert len(on_c3) == 16
    moved = {config.label: entropy_weights(rounded, config).argmax for config in on_c3}
    assert [label for label, j in moved.items() if j == 2] == ["r1:f1:bsum"]
    assert set(moved.values()) == {1, 2, 3}  # c2, c3 or c4
