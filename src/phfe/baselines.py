"""Membership-degree and like-distance entropy baselines.

These are the pre-existing element entropies the proposed measures are
compared against.  They are kept deliberately faithful, including their
documented failure modes: the membership-degree entropies return 0 at
{0|0.5, 1|0.5}, and the like-distance entropy cannot separate elements
whose expected membership coincides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import PHFE
from .errors import UnknownMeasureError

_LN2 = math.log(2.0)
_SQRT_E = math.exp(0.5)


def su_entropy_p1(a: PHFE) -> float:
    """Shannon-type membership entropy, probability-weighted over pairs."""
    total = 0.0
    for v, p in a:
        total += (_xlnx(v) + _xlnx(1.0 - v)) * p
    return -total / _LN2


def _xlnx(x: float) -> float:
    # 0 * ln 0 is taken as 0 (the usual Shannon limit).
    return 0.0 if x == 0.0 else x * math.log(x)


def su_entropy_p2(a: PHFE) -> float:
    """Exponential-type membership entropy, probability-weighted."""
    total = 0.0
    for v, p in a:
        total += (v * math.exp(1.0 - v) + (1.0 - v) * math.exp(v) - 1.0) * p
    return total / (_SQRT_E - 1.0)


def expectation(a: PHFE) -> float:
    """Probability-weighted mean membership degree."""
    return sum(v * p for v, p in a)


def su_like_distance(a: PHFE, b: PHFE) -> float:
    """Absolute difference of the two expected membership degrees."""
    return abs(expectation(a) - expectation(b))


@dataclass(frozen=True)
class ZetaFunction:
    """Strictly decreasing map with zeta(0) = 1 and zeta(1/2) = 0.

    Only the linear variant 1 - 2t is shipped; the source material never
    fixes a choice, and this is the simplest one meeting the conditions.
    Values are clamped to [0, 1] because expectations can exceed 1/2.
    """

    variant: str = "linear"

    def __post_init__(self) -> None:
        if self.variant != "linear":
            raise UnknownMeasureError(f"unknown zeta function {self.variant!r}")

    def __call__(self, t: float) -> float:
        return min(1.0, max(0.0, 1.0 - 2.0 * t))


LINEAR_ZETA = ZetaFunction()

_HALF_SINGLETON_EXPECTATION = 0.5


def su_entropy_d(a: PHFE, zeta: ZetaFunction = LINEAR_ZETA) -> float:
    """Distance-based entropy: zeta of the like-distance to {0.5|1}."""
    return zeta(abs(expectation(a) - _HALF_SINGLETON_EXPECTATION))
