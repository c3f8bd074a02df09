"""Entropy-based distance between two elements via their hybrid form.

The hybrid form crosses every membership value of one element with every
value of the other: each of the l_a * l_b cross pairs contributes the
value (1 - |v_a - v_b|) / 2 with weight pi(p_a, p_b).  The comprehensive
entropy of that weighted list, shaped by a strictly increasing generator
that fixes 0 and 1, gives the distance (see distance_from_entropy).

The hybrid list is consumed as-is: weights are not renormalised and equal
values are not merged, so it is generally not a valid element itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .elements import PHFE, _pi_fast, canonicalize
from .entropy import DEFAULT_CONFIG, EntropyConfig, _Variant, weighted_comprehensive


def hybrid(a: PHFE, b: PHFE) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Hybrid form of two canonical elements as ``(values, weights)``, l_a * l_b entries.

    Sorted by (value, weight): entries equal in both cannot be told apart by
    any later sum, so the order, and with it every downstream sum, is
    bit-identical under argument swap.
    """
    return tuple(zip(*sorted(zip(
        [(1.0 - abs(va - vb)) / 2.0 for va in a.values for vb in b.values],
        [_pi_fast(pa, pb) for pa in a.probs for pb in b.probs],
    ))))


def _psi_id(zs: Sequence[float]) -> Sequence[float]:
    return zs


def _psi_sq(zs: Sequence[float]) -> list[float]:
    return [z * z for z in zs]


def _psi_harm(zs: Sequence[float]) -> list[float]:
    return [2.0 * z / (1.0 + z) for z in zs]


def _psi_exp(zs: Sequence[float]) -> list[float]:
    return [z * math.exp(z - 1.0) for z in zs]


_PSI = {"id": _psi_id, "sq": _psi_sq, "harm": _psi_harm, "exp": _psi_exp}


class PsiFunction(_Variant):
    """Strictly increasing generator on [0, 1] used to shape the distance.

    Its function maps a column of entropies to a column; a call on one number
    passes a column of one.  Every variant maps 0 to 0.0 and 1 to 1.0 exactly (a new
    one must too), so :func:`distance_from_entropy` needs no affine renormalisation.
    """

    _table, _kind = _PSI, "psi generator"

    def __call__(self, z: float) -> float:
        return self._fn((z,))[0]


ALL_PSI = tuple(map(PsiFunction, _PSI))
PSI_IDENTITY, PSI_SQUARE, PSI_HARMONIC, PSI_EXP_TILT = ALL_PSI


def entropy_distance(
    a: PHFE,
    b: PHFE,
    psi: PsiFunction = PSI_IDENTITY,
    config: EntropyConfig = DEFAULT_CONFIG,
) -> float:
    """Distance in [0, 1]: :func:`distance_from_entropy` of the hybrid's comprehensive entropy.

    Symmetric in its arguments bit-for-bit.  Zero exactly when the hybrid
    collapses to {0.5|1}, which for singletons means equality; for
    multi-valued elements the distance of an element to itself stays
    positive, a property of the construction that the verification report
    surfaces rather than patches.
    """
    return distance_from_entropy((weighted_comprehensive(*hybrid(a, b), config),), psi)[0]


#: Ideal elements for a benefit criterion; a cost criterion swaps them.
FULL_ELEMENT = canonicalize([(1.0, 1.0)])
EMPTY_ELEMENT = canonicalize([(0.0, 1.0)])


def distance_from_entropy(es: Sequence[float], psi: PsiFunction) -> list[float]:
    """d(a, b) = 1 - psi(e) for each comprehensive entropy ``e`` of a hybrid h(a, b) in ``es``."""
    return [1.0 - z for z in psi._fn(es)]
