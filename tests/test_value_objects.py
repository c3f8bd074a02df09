"""The immutable value classes: frozen, compared and hashed by their fields.

One instance per class.  Each must refuse assignment and deletion with
``dataclasses.FrozenInstanceError``, print the pinned repr, keep its
equality and hash through pickle and deepcopy, and be unequal to an
instance of another class that holds the same field values.
"""

import copy
import dataclasses
import pickle

import pytest

from phfe import (
    F2,
    PSI_HARMONIC,
    R2,
    THETA_BSUM,
    THETA_PSUM,
    CriterionSpec,
    DecisionMatrix,
    EntropyConfig,
    F3,
    FuzzinessKernel,
    LinguisticScale,
    canonicalize,
    run_topsis,
)
from phfe.reproduce import Check


def _matrix():
    return DecisionMatrix(
        ("x1", "x2"),
        (CriterionSpec("c", "cost"),),
        ((canonicalize([(0.2, 1.0)]),), (canonicalize([(0.2, 0.4), (0.7, 0.6)]),)),
    )


_RESULT = run_topsis(_matrix())

_WEIGHTS_REPR = "WeightVector(raw=(0.3661460442591361,), normalized=(1.0,))"

CASES = [
    (canonicalize([(0.7, 0.6), (0.2, 0.4)]), "{0.2|0.4, 0.7|0.6}"),
    (LinguisticScale(3), "LinguisticScale(tau=3)"),
    (FuzzinessKernel("r1", 2.0), "FuzzinessKernel(variant='r1', r=2.0)"),
    (F2, "NonSpecificityKernel(variant='f2')"),
    (THETA_PSUM, "ThetaCombiner(variant='psum')"),
    (PSI_HARMONIC, "PsiFunction(variant='harm')"),
    (
        EntropyConfig(R2, F3, THETA_BSUM),
        "EntropyConfig(fuzziness=FuzzinessKernel(variant='r2', r=1.0), "
        "nonspecificity=NonSpecificityKernel(variant='f3'), theta=ThetaCombiner(variant='bsum'))",
    ),
    (CriterionSpec("c", "cost"), "CriterionSpec(name='c', kind='cost')"),
    (
        _matrix(),
        "DecisionMatrix(alternatives=('x1', 'x2'), criteria=(CriterionSpec(name='c', kind='cost'),), "
        "cells=(({0.2|1},), ({0.2|0.4, 0.7|0.6},)))",
    ),
    (_RESULT.weights, _WEIGHTS_REPR),
    (
        _RESULT,
        f"TopsisResult(weights={_WEIGHTS_REPR}, d_plus=(0.24906666666666666, 0.16744679259812678), "
        "d_minus=(0.8277333333333334, 0.16744679259812678), closeness=(0.7686973749380883, 0.5), "
        "ranking=(0, 1))",
    ),
    (Check("table 1", "accept", True, "ok"), "Check(label='table 1', grade='accept', ok=True, detail='ok')"),
]

IDS = [type(value).__name__ for value, _ in CASES]


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_refuses_assignment_and_deletion(value, text):
    name = next(iter(vars(value)))
    before = vars(value).copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    assert vars(value) == before


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_equality_and_hash_survive_pickle_and_deepcopy(value, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert repr(twin) == text


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_unequal_to_another_class_with_equal_fields(value, text):
    other = object.__new__(type("Other", (type(value),), {}))
    other.__dict__.update(vars(value))
    assert other != value and value != other


def test_matrix_equality_ignores_its_component_tables():
    filled, fresh = _matrix(), _matrix()
    run_topsis(filled)
    assert vars(filled)["_tables"] and not vars(fresh)["_tables"]
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
