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

from .elements import PHFE, _pi_fast
from .entropy import DEFAULT_CONFIG, EntropyConfig, weighted_comprehensive
from .errors import UnknownMeasureError

_PSI_VARIANTS = ("id", "sq", "harm", "exp")


@dataclass(frozen=True)
class HybridElementList:
    """All cross pairs of two elements as parallel ``values`` and ``weights``.

    Entries are sorted by (value, weight).  Entries equal in both cannot be
    told apart by any later sum, so the order is symmetric in the two input
    elements, which makes every downstream sum bit-identical under
    argument swap.
    """

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def hybrid(a: PHFE, b: PHFE) -> HybridElementList:
    """Hybrid form of two canonical elements (l_a * l_b entries)."""
    entries = sorted(
        ((1.0 - abs(va - vb)) / 2.0, _pi_fast(pa, pb))
        for va, pa in zip(a.values, a.probs)
        for vb, pb in zip(b.values, b.probs)
    )
    values, weights = zip(*entries)
    return HybridElementList(values, weights)


@dataclass(frozen=True)
class PsiFunction:
    """Strictly increasing generator on [0, 1] used to shape the distance.

    Every variant maps 0 to 0.0 and 1 to 1.0 exactly, so the distance
    1 - psi(entropy) needs no affine renormalisation; a new variant must
    keep both endpoints exact.
    """

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in _PSI_VARIANTS:
            raise UnknownMeasureError(f"unknown psi generator {self.variant!r}")

    def __call__(self, z: float) -> float:
        if self.variant == "id":
            return z
        if self.variant == "sq":
            return z * z
        if self.variant == "harm":
            return 2.0 * z / (1.0 + z)
        return z * math.exp(z - 1.0)

    @property
    def label(self) -> str:
        return self.variant


PSI_IDENTITY = PsiFunction("id")
PSI_SQUARE = PsiFunction("sq")
PSI_HARMONIC = PsiFunction("harm")
PSI_EXP_TILT = PsiFunction("exp")

ALL_PSI = (PSI_IDENTITY, PSI_SQUARE, PSI_HARMONIC, PSI_EXP_TILT)


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
    h = hybrid(a, b)
    return 1.0 - psi(weighted_comprehensive(h.values, h.weights, config))
