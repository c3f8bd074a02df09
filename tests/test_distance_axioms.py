"""Which distance axioms the entropy-based distance keeps, counted on the 1/4 grid.

Xu & Xia (2011), *Distance and similarity measures for hesitant fuzzy sets*
(Information Sciences 181(11)), ask of a distance a range of [0, 1], zero
exactly on equal arguments, and symmetry; the triangle inequality makes it a
metric.  The grid is the 65 canonical elements of one to three values on the
1/4 grid with probabilities in quarters.  Each config's hybrid entropies are
computed once, for the 2 080 pairs of distinct elements, and each psi maps
that column to distances.  README "Which distance axioms hold" states these
counts; no formula is changed to meet an axiom.
"""

import functools
import itertools
import math

import pytest

from phfe import (
    PSI_IDENTITY,
    PSI_SQUARE,
    EntropyConfig,
    canonicalize,
    entropy_distance,
    hybrid,
    parse_measure,
    weighted_comprehensive,
)
from phfe.distance import distance_from_entropy
from support import grid_elements

QUARTER = grid_elements(4)
PAIRS = list(itertools.combinations(range(len(QUARTER)), 2))
HYBRIDS = [hybrid(QUARTER[i], QUARTER[j]) for i, j in PAIRS]

#: (config id, psi) -> ordered triples (a, b, c) of distinct elements, of the
#: 65 * 64 * 63 = 262 080, with d(a, c) > d(a, b) + d(b, c) + 1e-12.
TRIANGLE_VIOLATIONS = {
    ("r1:f1:max", PSI_IDENTITY): 1556,
    ("r1:f1:max", PSI_SQUARE): 228,
    ("r1:f3:max", PSI_IDENTITY): 24,
    ("r1:f1:psum", PSI_SQUARE): 536,
    ("r1:f3:bsum", PSI_SQUARE): 204,
    ("r2:f3:psum", PSI_SQUARE): 0,
}


@functools.cache
def _hybrid_entropies(config_id):
    """The comprehensive entropy of every pair's hybrid under one config, in ``PAIRS`` order."""
    config = EntropyConfig.from_string(config_id)
    return [weighted_comprehensive(*h, config) for h in HYBRIDS]


@functools.cache
def _distances(config_id, psi):
    """The 65 x 65 distance matrix; the diagonal holds inf, as no triple of distinct elements
    reads it."""
    matrix = [[math.inf] * len(QUARTER) for _ in QUARTER]
    for (i, j), d in zip(PAIRS, distance_from_entropy(_hybrid_entropies(config_id), psi)):
        matrix[i][j] = matrix[j][i] = d  # the sorted hybrid makes d(a, b) and d(b, a) one float
    return matrix


def _triangle_violations(matrix):
    return sum(
        d_ac > d_ab + d_bc + 1e-12
        for a, row in enumerate(matrix)
        for c, d_ac in enumerate(row)
        if a != c
        for d_ab, d_bc in zip(row, matrix[c])  # b = a or b = c adds inf: never counted
    )


def test_the_grid():
    assert len(QUARTER) == 5 + 10 * 3 + 10 * 3 == 65
    assert len(PAIRS) == 2080


@pytest.mark.parametrize(
    "config_id, psi, count",
    [(config_id, psi, count) for (config_id, psi), count in TRIANGLE_VIOLATIONS.items()],
    ids=[f"{config_id}-{psi.label}" for config_id, psi in TRIANGLE_VIOLATIONS],
)
def test_triangle_violations_are_counted(config_id, psi, count):
    matrix = _distances(config_id, psi)
    assert _triangle_violations(matrix) == count
    # The column map gives entropy_distance's bits.
    i, j = PAIRS[1000]
    assert matrix[i][j] == entropy_distance(QUARTER[i], QUARTER[j], psi, parse_measure(config_id))


@pytest.mark.parametrize("config_id", sorted({config_id for config_id, _ in TRIANGLE_VIOLATIONS}))
def test_range_and_zero_on_distinct_elements(config_id):
    # Every distance lies in [0, 1], and no two distinct elements are at distance 0; three
    # singletons never break the triangle inequality.
    distances = distance_from_entropy(_hybrid_entropies(config_id), PSI_IDENTITY)
    assert all(0.0 < d <= 1.0 for d in distances)
    singletons = [k for k, a in enumerate(QUARTER) if len(a) == 1]
    matrix = _distances(config_id, PSI_IDENTITY)
    assert _triangle_violations([[matrix[i][j] for j in singletons] for i in singletons]) == 0


@pytest.mark.parametrize("config_id, positive", [("r1:f1:max", 60), ("r2:f3:psum", 65)])
def test_self_distance_is_positive_on_multi_valued_elements(config_id, positive):
    # Zero only on equal arguments fails the other way: under r1 the 60 multi-valued
    # elements, under r2 all 65, sit at a positive distance from themselves.
    config = parse_measure(config_id)
    assert sum(entropy_distance(a, a, config=config) > 0.0 for a in QUARTER) == positive


def test_the_ideals_break_the_triangle_inequality():
    # r1:f1:max under psi = id: the two TOPSIS ideals are the farthest pair, and an
    # element mixing 0 and 1 sits close to both.
    empty, full = canonicalize([(0.0, 1.0)]), canonicalize([(1.0, 1.0)])
    mixed = canonicalize([(0.0, 0.25), (1.0, 0.75)])
    assert entropy_distance(empty, full) == 1.0
    assert entropy_distance(empty, mixed) == entropy_distance(mixed, full) == 0.18350341907227397
