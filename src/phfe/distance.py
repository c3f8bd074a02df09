"""Entropy-based distance between two elements via their hybrid form.

The hybrid form crosses every membership value of one element with every
value of the other: each of the l_a * l_b cross pairs contributes the
value (1 - |v_a - v_b|) / 2 with weight pi(p_a, p_b).  The comprehensive
entropy of that weighted list is pushed through a strictly increasing
generator that fixes 0 and 1, and one minus the result is the distance.

The hybrid list is consumed as-is: weights are not renormalised and equal
values are not merged, so it is generally not a valid element itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lt

from .elements import PHFE, _pi_fast, canonicalize
from .entropy import DEFAULT_CONFIG, EntropyConfig, _pairwise, _Variant


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


def _psi_id(z: float) -> float:
    return z


def _psi_sq(z: float) -> float:
    return z * z


def _psi_harm(z: float) -> float:
    return 2.0 * z / (1.0 + z)


def _psi_exp(z: float) -> float:
    return z * math.exp(z - 1.0)


_PSI = {"id": _psi_id, "sq": _psi_sq, "harm": _psi_harm, "exp": _psi_exp}


@dataclass(frozen=True)
class PsiFunction(_Variant):
    """Strictly increasing generator on [0, 1] used to shape the distance.

    Every variant maps 0 to 0.0 and 1 to 1.0 exactly, so the distance
    1 - psi(entropy) needs no affine renormalisation; a new variant must
    keep both endpoints exact.
    """

    _table, _kind = _PSI, "psi generator"

    def __call__(self, z: float) -> float:
        return self._fn(z)


ALL_PSI = tuple(map(PsiFunction, _PSI))
PSI_IDENTITY, PSI_SQUARE, PSI_HARMONIC, PSI_EXP_TILT = ALL_PSI


def entropy_distance(
    a: PHFE,
    b: PHFE,
    psi: PsiFunction = PSI_IDENTITY,
    config: EntropyConfig = DEFAULT_CONFIG,
) -> float:
    """Distance in [0, 1]: one minus psi of the entropy of the hybrid.

    Symmetric in its arguments bit-for-bit.  Zero exactly when the hybrid
    collapses to {0.5|1}, which for singletons means equality; for
    multi-valued elements the distance of an element to itself stays
    positive, a property of the construction that the verification report
    surfaces rather than patches.
    """
    return component_distance(*hybrid_components(a, b, config), psi, config)


def hybrid_components(a: PHFE, b: PHFE, config: EntropyConfig) -> tuple[float, float]:
    """(fuzziness, non-specificity) of the hybrid of ``a`` and ``b``."""
    return _pairwise(*hybrid(a, b), config.fuzziness, config.nonspecificity)


#: Ideal elements for a benefit criterion; a cost criterion swaps them.
FULL_ELEMENT = canonicalize([(1.0, 1.0)])
EMPTY_ELEMENT = canonicalize([(0.0, 1.0)])


def ideal_components(a: PHFE, config: EntropyConfig) -> tuple[float, float, float, float]:
    """hybrid_components of ``a`` with {1|1}, then with {0|1}, bit for bit, built in place.

    Against a one-value ideal the sorted hybrid is ``a``'s own order ({1|1})
    or its reverse ({0|1}), with the weights pi(p, 1), while the values stay
    strictly monotone; they do unless 1 - v rounds two values together.
    """
    full = [(1.0 - abs(v - 1.0)) / 2.0 for v in a.values]
    empty = [(1.0 - v) / 2.0 for v in reversed(a.values)]
    if not (all(map(lt, full, full[1:])) and all(map(lt, empty, empty[1:]))):
        return hybrid_components(a, FULL_ELEMENT, config) + hybrid_components(a, EMPTY_ELEMENT, config)
    weights = [_pi_fast(p, 1.0) for p in a.probs]
    fuzz, nonspec = config.fuzziness, config.nonspecificity
    return _pairwise(full, weights, fuzz, nonspec) + _pairwise(empty, weights[::-1], fuzz, nonspec)


def component_distance(f: float, n: float, psi: PsiFunction, config: EntropyConfig) -> float:
    """entropy_distance from the two sums (f, n) that hybrid_components returns."""
    return 1.0 - psi._fn(config.theta._fn(f, n))
