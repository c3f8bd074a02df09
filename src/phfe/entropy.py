"""Fuzziness, non-specificity, and comprehensive entropy for elements.

Fuzziness measures how far the membership degrees sit from a crisp 0/1
judgement (maximal at the singleton {0.5|1}); non-specificity measures the
spread among the membership degrees (maximal at {0|0.5, 1|0.5}, zero for
singletons).  A comprehensive measure combines the two through a
commutative, monotone combiner.

All three measures are pairwise double sums over the element, weighted by
the probability functional :func:`phfe.elements.pi`.  One private pass
computes both sums; :func:`weighted_comprehensive` runs it over an
arbitrary (value, weight) list, which the distance module feeds the
hybrid form of two elements, whose weights do not sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .baselines import su_entropy_d, su_entropy_p1, su_entropy_p2
from .elements import PHFE, _pi_fast
from .errors import OutOfRangeError, UnknownMeasureError

_FUZZINESS_VARIANTS = ("r1", "r2")
_NONSPEC_VARIANTS = ("f1", "f2", "f3")
_THETA_VARIANTS = ("max", "psum", "bsum")


@dataclass(frozen=True)
class FuzzinessKernel:
    """Pairwise fuzziness kernel, either the exponent family r1 or r2."""

    variant: str
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in _FUZZINESS_VARIANTS:
            raise UnknownMeasureError(f"unknown fuzziness kernel {self.variant!r}")
        if self.variant == "r1" and not self.r >= 1.0:
            raise OutOfRangeError(f"r1 exponent must be >= 1, got {self.r!r}")

    @property
    def label(self) -> str:
        if self.variant == "r1":
            return f"r1@r={self.r:g}" if self.r != 1.0 else "r1"
        return "r2"


@dataclass(frozen=True)
class NonSpecificityKernel:
    """Pairwise non-specificity kernel, one of f1, f2, f3."""

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in _NONSPEC_VARIANTS:
            raise UnknownMeasureError(
                f"unknown non-specificity kernel {self.variant!r}"
            )

    @property
    def label(self) -> str:
        return self.variant


@dataclass(frozen=True)
class ThetaCombiner:
    """Combiner for (fuzziness, non-specificity): max, probabilistic or bounded sum."""

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in _THETA_VARIANTS:
            raise UnknownMeasureError(f"unknown combiner {self.variant!r}")

    def combine(self, x: float, y: float) -> float:
        if self.variant == "max":
            return max(x, y)
        if self.variant == "psum":
            # 1 absorbs exactly; the open form x + y - x*y rounds to
            # 1 - 1e-16 there, breaking the max <= psum <= bsum chain.
            if x == 1.0 or y == 1.0:
                return 1.0
            return x + y - x * y
        return min(x + y, 1.0)

    @property
    def label(self) -> str:
        return self.variant


R1 = FuzzinessKernel("r1")
R2 = FuzzinessKernel("r2")
F1 = NonSpecificityKernel("f1")
F2 = NonSpecificityKernel("f2")
F3 = NonSpecificityKernel("f3")
THETA_MAX = ThetaCombiner("max")
THETA_PSUM = ThetaCombiner("psum")
THETA_BSUM = ThetaCombiner("bsum")


def _r1_fn(r: float):
    def kernel(x: float, y: float) -> float:
        prod = x * y
        a = 1.0 - (abs(1.0 - 4.0 * prod) / 3.0) ** r
        b = 1.0 - (abs(4.0 * (x + y - prod) - 3.0) / 3.0) ** r
        return a * b

    return kernel


def _r2_fn(x: float, y: float) -> float:
    prod = x * y
    s = x + y - prod
    a = (2.0 / 3.0) * (min(1.0 - 2.0 * prod, prod) + 1.0)
    b = (2.0 / 3.0) * (min(2.0 * s - 1.0, 2.0 - 2.0 * s) + 1.0)
    return a * b


def _f1_fn(x: float, y: float) -> float:
    d = abs(x - y)
    return 2.0 * d / (1.0 + d)


_LN2 = math.log(2.0)


def _f2_fn(x: float, y: float) -> float:
    return math.log(1.0 + abs(x - y)) / _LN2


def _f3_fn(x: float, y: float) -> float:
    d = abs(x - y)
    return d * math.exp(d - 1.0)


def _r_fn(kernel: FuzzinessKernel):
    """Unchecked scalar function for a fuzziness kernel (hot path)."""
    return _r1_fn(kernel.r) if kernel.variant == "r1" else _r2_fn


_F_FNS = {"f1": _f1_fn, "f2": _f2_fn, "f3": _f3_fn}


def r_kernel(kernel: FuzzinessKernel, x: float, y: float) -> float:
    """Evaluate a fuzziness kernel at a pair of membership values."""
    _check_unit(x)
    _check_unit(y)
    return _r_fn(kernel)(x, y)


def f_kernel(kernel: NonSpecificityKernel, x: float, y: float) -> float:
    """Evaluate a non-specificity kernel at a pair of membership values."""
    _check_unit(x)
    _check_unit(y)
    return _F_FNS[kernel.variant](x, y)


def _check_unit(v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise OutOfRangeError(f"kernel argument {v!r} outside [0, 1]")


@dataclass(frozen=True)
class EntropyConfig:
    """Selection of fuzziness kernel, non-specificity kernel, and combiner."""

    fuzziness: FuzzinessKernel = R1
    nonspecificity: NonSpecificityKernel = F1
    theta: ThetaCombiner = THETA_MAX

    @classmethod
    def from_string(cls, text: str) -> "EntropyConfig":
        """Parse a config id like ``r1:f2:max`` or ``r1:f1:bsum@r=2``."""
        config = parse_measure(text)
        if not isinstance(config, cls):
            raise UnknownMeasureError(f"bad entropy config {text!r}")
        return config

    @property
    def label(self) -> str:
        base = f"{self.fuzziness.variant}:{self.nonspecificity.label}:{self.theta.label}"
        if self.fuzziness.variant == "r1" and self.fuzziness.r != 1.0:
            return f"{base}@r={self.fuzziness.r:g}"
        return base


DEFAULT_CONFIG = EntropyConfig()


def all_configs(r: float = 1.0) -> list[EntropyConfig]:
    """All 18 kernel/combiner combinations, in a fixed documented order."""
    out = []
    for theta in (THETA_MAX, THETA_PSUM, THETA_BSUM):
        for fuzz in (FuzzinessKernel("r1", r), R2):
            for ns in (F1, F2, F3):
                out.append(EntropyConfig(fuzz, ns, theta))
    return out


# ---------------------------------------------------------------------------
# Measure ids: the one grammar shared by the CLI, the config parser and the
# reproduction report.
# ---------------------------------------------------------------------------

_BASELINES = {"su-p1": su_entropy_p1, "su-p2": su_entropy_p2, "su-d": su_entropy_d}

Measure = Union[
    Callable[[PHFE], float], FuzzinessKernel, NonSpecificityKernel, EntropyConfig
]


def parse_measure(text: str, r: float = 1.0) -> Measure:
    """Parse a measure id into the object that evaluates it.

    ::

        su-p1 | su-p2 | su-d                     baseline function
        r1[@r=x] | r2                            FuzzinessKernel
        f1 | f2 | f3                             NonSpecificityKernel
        <r1|r2>:<f1|f2|f3>:<max|psum|bsum>[@r=x] EntropyConfig

    ``r`` is the r1 exponent of an id without ``@r=``; an explicit suffix
    beats it.  ``x`` is read by ``float`` and must be at least 1, and only
    ids with the r1 kernel take the suffix.
    """
    if text in _BASELINES:
        return _BASELINES[text]
    base, suffix, r_text = text.partition("@r=")
    parts = base.split(":")
    if suffix:
        if parts[0] != "r1":
            raise UnknownMeasureError(f"@r= applies only to the r1 kernel, in {text!r}")
        try:
            r = float(r_text)
        except ValueError:
            raise UnknownMeasureError(f"bad r1 exponent {r_text!r} in {text!r}") from None
    if base in _NONSPEC_VARIANTS:
        return NonSpecificityKernel(base)
    if len(parts) not in (1, 3) or parts[0] not in _FUZZINESS_VARIANTS:
        raise UnknownMeasureError(f"unknown measure id {text!r}")
    fuzz = FuzzinessKernel(parts[0], r if parts[0] == "r1" else 1.0)
    if len(parts) == 1:
        return fuzz
    return EntropyConfig(fuzz, NonSpecificityKernel(parts[1]), ThetaCombiner(parts[2]))


def measure_value(measure: Measure, a: PHFE) -> float:
    """Evaluate a parsed measure id on one element."""
    if isinstance(measure, FuzzinessKernel):
        return fuzziness_entropy(a, measure)
    if isinstance(measure, NonSpecificityKernel):
        return nonspecificity_entropy(a, measure)
    if isinstance(measure, EntropyConfig):
        return comprehensive_entropy(a, measure)
    return measure(a)


# ---------------------------------------------------------------------------
# The pairwise engine.  `weights` plays the role the probabilities play for
# a canonical element; the list need not be normalised or free of duplicate
# values (the hybrid form of two elements is neither).
# ---------------------------------------------------------------------------


def _pairwise(
    values: Sequence[float],
    weights: Sequence[float],
    fuzz: FuzzinessKernel | None,
    nonspec: NonSpecificityKernel | None,
) -> tuple[float, float]:
    """(fuzziness, non-specificity) in one i <= j pass; a None kernel's sum stays 0."""
    r_fn = None if fuzz is None else _r_fn(fuzz)
    f_fn = None if nonspec is None else _F_FNS[nonspec.variant]
    l = len(values)
    fuzz_total = ns_total = 0.0
    for i in range(l):
        vi, wi = values[i], weights[i]
        for j in range(i, l):
            vj = values[j]
            w = _pi_fast(wi, weights[j])
            if r_fn is not None:
                fuzz_total += r_fn(vi, vj) * w
            if f_fn is not None:
                base = f_fn(vi, vj)
                if base > 0.0:
                    ns_total += base ** w
                # base == 0 contributes 0: zero to a positive power.
    return 2.0 * fuzz_total / (l * (l + 1)), 2.0 * ns_total / max(2, l * (l - 1))


def weighted_comprehensive(
    values: Sequence[float],
    weights: Sequence[float],
    config: EntropyConfig = DEFAULT_CONFIG,
) -> float:
    """Comprehensive entropy of a weighted list, such as a hybrid form."""
    return config.theta.combine(
        *_pairwise(values, weights, config.fuzziness, config.nonspecificity)
    )


# ---------------------------------------------------------------------------
# Element-level measures.
# ---------------------------------------------------------------------------


def fuzziness_entropy(a: PHFE, kernel: FuzzinessKernel = R1) -> float:
    """Fuzziness of a canonical element, in [0, 1].

    Scaled pairwise sum of kernel values weighted by the probability
    functional; 0 exactly at the crisp singletons {0|1} and {1|1}, 1 at
    {0.5|1} for the r1 family.
    """
    return _pairwise(a.values, a.probs, kernel, None)[0]


def nonspecificity_entropy(a: PHFE, kernel: NonSpecificityKernel = F1) -> float:
    """Non-specificity of a canonical element, in [0, 1].

    Pairwise sum of kernel values raised to the probability functional,
    scaled by 2 / max(2, l*(l-1)); 0 exactly for singletons, 1 exactly at
    {0|0.5, 1|0.5}.
    """
    return _pairwise(a.values, a.probs, None, kernel)[1]


def entropy_components(a: PHFE, config: EntropyConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """(fuzziness, non-specificity) of an element under ``config``, in one pass.

    Each equals, bit for bit, what :func:`fuzziness_entropy` and
    :func:`nonspecificity_entropy` return for the config's kernels.
    """
    return _pairwise(a.values, a.probs, config.fuzziness, config.nonspecificity)


def comprehensive_entropy(a: PHFE, config: EntropyConfig = DEFAULT_CONFIG) -> float:
    """Combiner applied to the fuzziness and non-specificity of an element."""
    return config.theta.combine(*entropy_components(a, config))
