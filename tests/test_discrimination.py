"""How well each measure tells elements apart, counted on an exhaustive grid.

The grid is every canonical element with one to three values on the 1/8
grid and probabilities in quarters: 369 elements.  Entropy is invariant
under complement by axiom, so each element is merged with its complement
into one class, 189 classes.  A class is represented by the member whose
``(values, probs)`` is lexicographically smaller; r2 is not reflection
symmetric, so counts under the r2 ids depend on that choice.  Values are
bucketed with ``round(x, 12)``.  README "How well the measures tell
elements apart" states these counts.
"""

import collections

import pytest

from phfe import all_configs, complement, measure_value, parse_measure
from support import grid_elements

ELEMENTS = grid_elements(8)


def _representative(a):
    return min(a, complement(a), key=lambda e: (e.values, e.probs))


CLASSES = list(dict.fromkeys(map(_representative, ELEMENTS)))

#: Measure id -> (distinct values, colliding pairs of classes, classes at exactly 1).
PINNED = {
    "su-p1": (65, 218, 1),
    "su-p2": (65, 218, 1),
    "su-d": (17, 1354, 15),
    "r1": (168, 21, 1),
    "r2": (182, 7, 0),
    "f1": (25, 834, 2),
    "f2": (25, 834, 2),
    "f3": (25, 834, 2),
    "r1:f1:max": (28, 826, 3),
    "r1:f2:max": (30, 805, 3),
    "r1:f3:max": (37, 742, 3),
    "r2:f1:max": (29, 824, 2),
    "r2:f2:max": (29, 824, 2),
    "r2:f3:max": (38, 746, 2),
    "r1:f1:psum": (172, 18, 3),
    "r1:f2:psum": (172, 18, 3),
    "r1:f3:psum": (172, 18, 3),
    "r2:f1:psum": (185, 4, 2),
    "r2:f2:psum": (185, 4, 2),
    "r2:f3:psum": (185, 4, 2),
    "r1:f1:bsum": (98, 3577, 85),
    "r1:f2:bsum": (132, 1003, 45),
    "r1:f3:bsum": (170, 25, 5),
    "r2:f1:bsum": (112, 2852, 76),
    "r2:f2:bsum": (152, 598, 35),
    "r2:f3:bsum": (183, 9, 4),
}


def test_grid_and_classes():
    assert len(ELEMENTS) == 9 + 36 * 3 + 84 * 3 == 369
    assert len(CLASSES) == 189


def test_every_measure_id_is_pinned():
    ids = {"su-p1", "su-p2", "su-d", "r1", "r2", "f1", "f2", "f3"}
    assert set(PINNED) == ids | {c.label for c in all_configs()}


@pytest.mark.parametrize("measure_id", list(PINNED))
def test_discrimination_counts(measure_id):
    measure = parse_measure(measure_id)
    values = [measure_value(measure, a) for a in CLASSES]
    buckets = collections.Counter(round(x, 12) for x in values)
    colliding = sum(k * (k - 1) // 2 for k in buckets.values())
    assert (len(buckets), colliding, values.count(1.0)) == PINNED[measure_id]
