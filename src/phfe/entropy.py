"""Fuzziness, non-specificity, and comprehensive entropy for elements.

Fuzziness measures how far the membership degrees sit from a crisp 0/1
judgement (maximal at the singleton {0.5|1}); non-specificity measures the
spread among the membership degrees (maximal at {0|0.5, 1|0.5}, zero for
singletons).  A comprehensive measure combines the two through a
commutative, monotone combiner.

All three measures are pairwise double sums over the element, weighted by
the probability functional :func:`phfe.elements.pi`.  Every pass sums one fuzziness
and one non-specificity kernel (a batched twin runs many lists of one length as columns);
a single measure keeps its half.  :func:`weighted_comprehensive` runs it over any checked
(value, weight) list, such as a hybrid form, whose weights need not sum to one.  Each kernel
is one expression in ``_KERNELS``, compiled into the scalar kernel of the one-list pass and
the column step of the batched twin.  Combiners act on whole columns; one element's
combination is a column of one.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from operator import add

from .baselines import _LN2, su_entropy_d, su_entropy_p1, su_entropy_p2
from .elements import PHFE, Frozen, _check_weighted, _pi_column, _pi_fast, format_number
from .errors import EmptyInputError, OutOfRangeError, UnknownMeasureError

# Each kernel is written once in _KERNELS, the only list of its ids: id -> (bindings, expression
# over x and y).  _compile makes of an entry the scalar kernel _<id> of _pairwise and the column
# step _<id>_step of _pairwise_columns: ts[k] + expr * ws[k] for fuzziness (r1 and r2 take the
# exponent r, which r2 ignores), ts[k] + expr ** ws[k] for non-specificity.  One source gives the
# same floats bit for bit.  r2 writes min(a, b) as b if b < a else a, signed zeros too.
_BINDINGS = {"p": "x * y", "q": "2.0 * (x + y - p)", "d": "abs(x - y)"}
_KERNELS = {
    "r1": ("p", "(1.0 - (abs(1.0 - 4.0 * p) / 3.0) ** r)"
                " * (1.0 - (abs(4.0 * (x + y - p) - 3.0) / 3.0) ** r)"),
    "r2": ("pq", "(2.0 / 3.0) * ((p if p < 1.0 - 2.0 * p else 1.0 - 2.0 * p) + 1.0)"
                 " * ((2.0 / 3.0) * ((2.0 - q if 2.0 - q < q - 1.0 else q - 1.0) + 1.0))"),
    "f1": ("d", "2.0 * d / (1.0 + d)"),
    "f2": ("", "log(1.0 + abs(x - y)) / _LN2"),
    "f3": ("d", "d * exp(d - 1.0)"),
}


def _compile(kid: str, bindings: str, expression: str) -> tuple[Callable, Callable]:
    """(scalar kernel, column step) of one entry in code named ``<phfe kernel {kid}>``, unbound."""
    lets = [(name, _BINDINGS[name]) for name in bindings]
    exponent, term = (", r", "t + ({}) * w") if kid[0] == "r" else ("", "t + ({}) ** w")
    libs = "".join(f", {f}=math.{f}" for f in ("log", "exp") if f + "(" in expression)
    loop = "for t, x, y, w in zip(ts, xs, ys, ws)" + "".join(f" for {n} in ({e},)" for n, e in lets)
    scalar = [f"def _{kid}(x, y{exponent}{libs}):", *(f"    {n} = {e}" for n, e in lets)]
    step = [f"def _{kid}_step(ts, xs, ys, ws{exponent}{libs}):"]
    bodies = [("", expression)]
    if "** r" in expression:  # t ** 1.0 is t exactly; the power is most of the kernel's cost
        bodies.insert(0, ("    if r == 1.0:\n    ", expression.replace(" ** r", "")))
    for guard, body in bodies:
        scalar.append(f"{guard}    return {body}")
        step.append(f"{guard}    return [{term.format(body)} {loop}]")
    exec(compile("\n".join(scalar + step), f"<phfe kernel {kid}>", "exec"), globals(), scope := {})
    return scope[f"_{kid}"], scope[f"_{kid}_step"]


_COMPILED = {kid: _compile(kid, *entry) for kid, entry in _KERNELS.items()}
globals().update((fn.__name__, fn) for fns in _COMPILED.values() for fn in fns)  # pickle's names
_FUZZINESS = {kid: scalar for kid, (scalar, _) in _COMPILED.items() if kid[0] == "r"}
_NONSPECIFICITY = {kid: scalar for kid, (scalar, _) in _COMPILED.items() if kid[0] == "f"}
_STEPS = {kid: step for kid, (_, step) in _COMPILED.items()}


def _psum(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    # 1 absorbs exactly: x + y - x*y rounds to 1 - 1e-16 there, breaking max <= psum <= bsum.
    return [1.0 if x == 1.0 or y == 1.0 else x + y - x * y for x, y in zip(xs, ys)]


def _max(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    return [y if y > x else x for x, y in zip(xs, ys)]  # max(x, y), signed zeros and nan too


def _bsum(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    return [1.0 if 1.0 < s else s for s in map(add, xs, ys)]  # min(x + y, 1.0), the same way


_THETA = {"max": _max, "psum": _psum, "bsum": _bsum}  # the only list of the combiner ids


class _Variant(Frozen):
    """One member of a function family; ``_fn`` is its function, looked up once."""

    def __init__(self, variant: str) -> None:
        if variant not in self._table:
            raise UnknownMeasureError(f"unknown {self._kind} {variant!r:.40}")
        self.__dict__.update(variant=variant, _fn=self._table[variant])

    @property
    def label(self) -> str:
        return self.variant


class FuzzinessKernel(_Variant):
    """Pairwise fuzziness kernel: r1 with a finite exponent ``r >= 1``, or r2, which takes none."""

    _table, _kind = _FUZZINESS, "fuzziness kernel"

    def __init__(self, variant: str, r: float = 1.0) -> None:
        super().__init__(variant)
        if variant == "r1" and not 1.0 <= r < math.inf:  # nan fails both
            raise OutOfRangeError(f"r1 exponent must be finite and >= 1, got {r!r}")
        if variant != "r1" and r != 1.0:
            raise OutOfRangeError(f"only r1 takes an exponent, got {variant}@r={r!r}")
        self.__dict__["r"] = r

    @property
    def label(self) -> str:
        if self.r == 1.0:
            return self.variant
        text = format_number(self.r)  # six digits where they round-trip, else repr
        if float(text) != self.r:
            text = repr(self.r)
        return f"{self.variant}@r={text}"


class NonSpecificityKernel(_Variant):
    """Pairwise non-specificity kernel, one of f1, f2, f3."""

    _table, _kind = _NONSPECIFICITY, "non-specificity kernel"


class ThetaCombiner(_Variant):
    """Combiner for (fuzziness, non-specificity): max, probabilistic or bounded sum."""

    _table, _kind = _THETA, "combiner"

    def combine(self, x: float, y: float) -> float:
        return self._fn((x,), (y,))[0]


R1, R2 = map(FuzzinessKernel, _FUZZINESS)
F1, F2, F3 = map(NonSpecificityKernel, _NONSPECIFICITY)
THETA_MAX, THETA_PSUM, THETA_BSUM = map(ThetaCombiner, _THETA)


class EntropyConfig(Frozen):
    """Selection of fuzziness kernel, non-specificity kernel, and combiner."""

    def __init__(
        self,
        fuzziness: FuzzinessKernel = R1,
        nonspecificity: NonSpecificityKernel = F1,
        theta: ThetaCombiner = THETA_MAX,
    ) -> None:
        self.__dict__.update(fuzziness=fuzziness, nonspecificity=nonspecificity, theta=theta)

    @classmethod
    def from_string(cls, text: str) -> "EntropyConfig":
        """Parse a config id like ``r1:f2:max`` or ``r1:f1:bsum@r=2``."""
        config = parse_measure(text)
        if not isinstance(config, cls):
            raise UnknownMeasureError(f"bad entropy config {text!r:.40}")
        return config

    @property
    def label(self) -> str:
        fuzz, at, r_text = self.fuzziness.label.partition("@")
        return f"{fuzz}:{self.nonspecificity.label}:{self.theta.label}{at}{r_text}"


DEFAULT_CONFIG = EntropyConfig()


def all_configs() -> list[EntropyConfig]:
    """All 18 kernel/combiner combinations at r = 1, in a fixed documented order."""
    return [
        EntropyConfig(FuzzinessKernel(fuzz), NonSpecificityKernel(ns), ThetaCombiner(theta))
        for theta in _THETA
        for fuzz in _FUZZINESS
        for ns in _NONSPECIFICITY
    ]


# ---------------------------------------------------------------------------
# Measure ids: the one grammar shared by the CLI, the config parser and the
# reproduction report.
# ---------------------------------------------------------------------------

_BASELINES = {"su-p1": su_entropy_p1, "su-p2": su_entropy_p2, "su-d": su_entropy_d}

Measure = Callable[[PHFE], float] | FuzzinessKernel | NonSpecificityKernel | EntropyConfig


def parse_measure(text: str) -> Measure:
    """Parse a measure id into the object that evaluates it.

    ::

        su-p1 | su-p2 | su-d                     baseline function
        r1[@r=x] | r2                            FuzzinessKernel
        f1 | f2 | f3                             NonSpecificityKernel
        <r1|r2>:<f1|f2|f3>:<max|psum|bsum>[@r=x] EntropyConfig

    An id without ``@r=`` means r = 1.  ``x`` is read by ``float`` and
    must be finite and at least 1, and only ids with the r1 kernel take
    the suffix.  Error messages quote at most 40 characters of an id.
    """
    if text in _BASELINES:
        return _BASELINES[text]
    base, suffix, r_text = text.partition("@r=")
    parts = base.split(":")
    if suffix and parts[0] != "r1":
        raise UnknownMeasureError(f"@r= applies only to the r1 kernel, in {text!r:.40}")
    try:
        r = float(r_text) if suffix else 1.0
    except ValueError:
        raise UnknownMeasureError(f"bad r1 exponent {r_text!r:.40} in {text!r:.40}") from None
    if base in _NONSPECIFICITY:
        return NonSpecificityKernel(base)
    if len(parts) not in (1, 3) or parts[0] not in _FUZZINESS:
        raise UnknownMeasureError(f"unknown measure id {text!r:.40}")
    fuzz = FuzzinessKernel(parts[0], r)
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
    fuzz: FuzzinessKernel,
    nonspec: NonSpecificityKernel,
) -> tuple[float, float]:
    """(fuzziness, non-specificity) in one i <= j pass that sums both kernels."""
    r_fn, r, f_fn = fuzz._fn, fuzz.r, nonspec._fn
    l = len(values)
    fuzz_total = ns_total = 0.0
    for i in range(l):
        vi, wi = values[i], weights[i]
        fuzz_total += r_fn(vi, vi, r) * wi  # j == i: pi(w, w) is w; f(v, v) is 0, adds nothing
        for j in range(i + 1, l):
            vj = values[j]
            w = _pi_fast(wi, weights[j])
            fuzz_total += r_fn(vi, vj, r) * w
            ns_total += f_fn(vi, vj) ** w  # w > 0, so a zero base adds +0.0: no bit changes
    return 2.0 * fuzz_total / (l * (l + 1)), 2.0 * ns_total / max(2, l * (l - 1))


def _pairwise_columns(vs, ws, fuzz: FuzzinessKernel, nonspec: NonSpecificityKernel):
    """_pairwise of many lanes of one length l, as l value and l weight columns: ([fuzziness],
    [non-specificity]) by lane.  Each step of _pairwise's walk maps every lane at once, so each
    lane adds the same terms in the same order from 0.0, and every sum keeps its bits."""
    r_step, r, f_step = _STEPS[fuzz.variant], fuzz.r, _STEPS[nonspec.variant]
    l = len(vs)
    fuzz_totals = ns_totals = [0.0] * len(vs[0])
    for i, (xs, ps) in enumerate(zip(vs, ws)):
        fuzz_totals = r_step(fuzz_totals, xs, xs, ps, r)  # j == i, as in _pairwise
        for j in range(i + 1, l):
            w = _pi_column(ps, ws[j])
            fuzz_totals = r_step(fuzz_totals, xs, vs[j], w, r)
            ns_totals = f_step(ns_totals, xs, vs[j], w)
    fd, nd = l * (l + 1), max(2, l * (l - 1))
    return [2.0 * t / fd for t in fuzz_totals], [2.0 * t / nd for t in ns_totals]


def weighted_comprehensive(
    values: Sequence[float],
    weights: Sequence[float],
    config: EntropyConfig = DEFAULT_CONFIG,
) -> float:
    """Comprehensive entropy of a weighted list, such as a hybrid form: at least one value, and
    values and weights under the one range rule of an element's pairs; anything else is refused."""
    if not values:
        raise EmptyInputError("a weighted list needs at least one entry")
    if len(weights) != len(values):
        raise OutOfRangeError(f"{len(values)} values but {len(weights)} weights")
    _check_weighted(values, weights, "weight")
    fuzz, nonspec = config.fuzziness, config.nonspecificity
    return config.theta.combine(*_pairwise(values, weights, fuzz, nonspec))


# ---------------------------------------------------------------------------
# Element-level measures.
# ---------------------------------------------------------------------------


def fuzziness_entropy(a: PHFE, kernel: FuzzinessKernel = R1) -> float:
    """Fuzziness of a canonical element, in [0, 1].

    Scaled pairwise sum of kernel values weighted by the probability
    functional; 0 exactly at the crisp singletons {0|1} and {1|1}, 1 at
    {0.5|1} for the r1 family.  The fuzziness half of a pass whose other half is F1's.
    """
    return _pairwise(a.values, a.probs, kernel, F1)[0]


def nonspecificity_entropy(a: PHFE, kernel: NonSpecificityKernel = F1) -> float:
    """Non-specificity of a canonical element, in [0, 1].

    Pairwise sum of kernel values raised to the probability functional,
    scaled by 2 / max(2, l*(l-1)); 0 exactly for singletons, 1 exactly at
    {0|0.5, 1|0.5}.  The non-specificity half of a pass whose other half is R1's.
    """
    return _pairwise(a.values, a.probs, R1, kernel)[1]


def entropy_components(a: PHFE, config: EntropyConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """(fuzziness, non-specificity) of an element under ``config``, in one pass.

    Each equals, bit for bit, what :func:`fuzziness_entropy` and
    :func:`nonspecificity_entropy` return for the config's kernels.
    """
    return _pairwise(a.values, a.probs, config.fuzziness, config.nonspecificity)


def comprehensive_entropy(a: PHFE, config: EntropyConfig = DEFAULT_CONFIG) -> float:
    """Combiner applied to the fuzziness and non-specificity of an element."""
    return config.theta.combine(*entropy_components(a, config))
