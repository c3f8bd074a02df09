"""Probabilistic hesitant fuzzy elements and their canonical form.

An element is a finite list of membership degrees, each carrying an
occurrence probability; the probabilities sum to one.  All operations in
the package assume the canonical form produced by :func:`canonicalize`:
zero-probability pairs dropped, duplicate membership values merged, pairs
sorted ascending by value.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from operator import add

from .errors import (
    EmptyInputError,
    OutOfRangeError,
    ParseError,
    ProbabilitySumError,
    TermOutOfRangeError,
)

#: Tolerance for the sum-to-one check on probabilities.
PROB_SUM_TOL = 1e-9

#: Tolerance for the equality branch of the pairwise probability functional.
PI_EQ_TOL = 1e-12


class Frozen:
    """Immutable value: equal to, and hashed by, its ``_fields`` within one class.

    Behaves as a frozen dataclass does: the fields are the ``__init__``
    parameters, the repr is ``Name(field=value, ...)``, and assignment or
    deletion raises ``dataclasses.FrozenInstanceError``.  A subclass's
    ``__init__`` validates its arguments, then fills ``__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1 : init.co_argcount]

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> None:
    from dataclasses import FrozenInstanceError  # on the error path only; loads inspect

    raise FrozenInstanceError(message)


class PHFE(Frozen):
    """Canonical probabilistic hesitant fuzzy element.

    Two parallel tuples: membership ``values`` strictly ascending in
    [0, 1] and their occurrence ``probs`` in (0, 1], summing to one.
    Iterating yields ``(value, prob)`` pairs.  Construct through
    :func:`canonicalize` (or the parsing helpers); the constructor only
    validates that the given tuples already are canonical.
    """

    def __init__(self, values: tuple[float, ...], probs: tuple[float, ...]) -> None:
        if not values:
            raise EmptyInputError("an element needs at least one pair")
        if len(probs) != len(values):
            raise OutOfRangeError(f"{len(values)} values but {len(probs)} probabilities")
        _check_weighted(values, probs, "probability")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise OutOfRangeError("values must be strictly increasing")
        _check_total(_ltr_sum(probs))
        self.__dict__.update(values=values, probs=probs)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.values, self.probs)

    def __repr__(self) -> str:
        body = ", ".join(f"{format_number(v)}|{format_number(p)}" for v, p in self)
        return "{" + body + "}"


def canonicalize(raw_pairs: Iterable[tuple[float, float]]) -> PHFE:
    """Build the canonical element from raw (value, probability) pairs.

    Zero-probability pairs are dropped, equal membership values are merged
    by summing their probabilities, and the result is sorted ascending by
    value.  Idempotent: ``canonicalize(a) == a`` for a canonical ``a``.
    """
    pairs = [(float(v) + 0.0, float(p)) for v, p in raw_pairs]  # + 0.0 folds -0.0 into 0.0
    if not pairs:
        raise EmptyInputError("no pairs given")
    merged: dict[float, float] = {}
    total = 0.0  # the _ltr_sum of the input probabilities
    for v, p in pairs:
        if not 0.0 <= v <= 1.0:
            raise OutOfRangeError(f"membership value {v!r} outside [0, 1]")
        if not 0.0 <= p <= 1.0:
            raise OutOfRangeError(f"probability {p!r} outside [0, 1]")
        total += p
        if p != 0.0:
            merged[v] = merged.get(v, 0.0) + p
    if not merged:
        raise EmptyInputError("all pairs carry zero probability")
    _check_total(total)

    values = tuple(sorted(merged))
    # Summing may overshoot 1 by the declared input tolerance; the clamp can move the total.
    probs = tuple([p if (p := merged[v]) <= 1.0 else 1.0 for v in values])
    _check_total(_ltr_sum(probs))
    a = object.__new__(PHFE)  # canonical by construction: skip __init__'s second pass
    a.__dict__.update(values=values, probs=probs)
    return a


def _check_weighted(values: Iterable[float], weights: Iterable[float], noun: str) -> None:
    """The range rule of a weighted list: values in [0, 1], then weights in (0, 1]; nan fails."""
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise OutOfRangeError(f"membership value {v!r} outside [0, 1]")
    for w in weights:
        if not 0.0 < w <= 1.0:
            raise OutOfRangeError(f"{noun} {w!r} outside (0, 1]")


def _ltr_sum(xs: Iterable[float]) -> float:
    """Float sum added left to right from 0.0, on every Python (3.12's ``sum`` compensates)."""
    return reduce(add, xs, 0.0)


def _check_total(total: float) -> None:
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ProbabilitySumError(f"probabilities sum to {total!r}, expected 1")


def complement(a: PHFE) -> PHFE:
    """Element with every membership value reflected about 1/2.

    Probabilities are untouched, so the probability multiset and the
    length are preserved.
    """
    return canonicalize([(1.0 - v, p) for v, p in a])


def pi(p_i: float, p_j: float) -> float:
    """Pairwise probability functional: |p_i - p_j|, or the mean when equal.

    Both arguments obey the weight half of the one range rule, (0, 1], and so does the result.
    The equality branch fires within an absolute tolerance of ``PI_EQ_TOL``, and the jump at its
    edge is nearly the whole weight: just past it a pair weighs the difference, about 0, not the
    mean, about p.  {0.3|0.5, 0.7|0.5} has fuzziness 0.32767 and non-specificity 0.75593; with
    probabilities 0.5 - 1e-12 and 0.5 + 1e-12 it has 0.17831 and 0.99999999999888.
    """
    _check_weighted((), (p_i, p_j), "probability")
    return _pi_fast(p_i, p_j)


def _pi_fast(p_i: float, p_j: float) -> float:
    # Inner-loop variant of pi(); callers guarantee the (0, 1] domain.
    d = abs(p_i - p_j)
    if d <= PI_EQ_TOL:
        return (p_i + p_j) / 2.0
    return d


def _pi_column(ps: Sequence[float], qs: Sequence[float]) -> list[float]:  # _pi_fast written inline
    return [(p + q) / 2.0 if d <= PI_EQ_TOL else d for p, q in zip(ps, qs) for d in (abs(p - q),)]


def format_number(x: float) -> str:
    """Six significant digits: the precision of every reported number."""
    return format(x, ".6g")


def _brief(x: object) -> str:
    """``repr(x)`` for an error message, with an integer past 15 digits in .6g form."""
    if isinstance(x, int) and abs(x) >= 10**15:
        from decimal import Decimal  # on the error path only; exact for any size

        return format(Decimal(x), ".6g")
    return repr(x)


class LinguisticScale(Frozen):
    """Totally ordered term set s_0 .. s_{2*tau}."""

    def __init__(self, tau: int) -> None:
        if type(tau) is bool or not isinstance(tau, int) or tau < 1:
            raise OutOfRangeError(f"tau must be a positive integer, got {_brief(tau)}")
        self.__dict__["tau"] = tau

    @property
    def top_term(self) -> int:
        return 2 * self.tau


def from_linguistic(
    terms: Iterable[tuple[int, float]], scale: LinguisticScale
) -> PHFE:
    """Map probabilistic linguistic terms onto an element via t / (2*tau).

    The division of two machine integers rounds the exact rational once,
    so equal term indices always collide and merge cleanly.
    """
    raw = []
    for t, p in terms:
        if not 0 <= t <= scale.top_term:
            raise TermOutOfRangeError(
                f"term index {_brief(t)} outside 0..{_brief(scale.top_term)}"
            )
        raw.append((t / scale.top_term, p))
    return canonicalize(raw)


# ---------------------------------------------------------------------------
# JSON forms
#
# Element:     {"pairs": [{"v": 0.5, "p": 0.4}, ...]}
# Linguistic:  {"terms": [{"t": 4, "p": 0.6}, ...], "tau": 3}
# ---------------------------------------------------------------------------


def json_number(obj: dict, key: str, integral: bool = False) -> int | float:
    """Field ``key`` of a JSON object, which must hold a JSON number.

    Strings, booleans, null and integers beyond the float range are
    refused; with ``integral`` the number must also be whole (``2`` and
    ``2.0`` pass, ``2.7`` does not) and is returned as an ``int``.
    """
    value = obj[key]
    if type(value) is float and not integral:  # the common case, first
        return value
    # json.load yields exactly these two types for numbers; bool is refused.
    if type(value) not in (float, int):
        raise ParseError(f'"{key}" must be a number, got {json.dumps(value, default=repr):.40}')
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ParseError(f'"{key}" is an integer beyond the float range')
    if not integral:
        return value
    if type(value) is float and not value.is_integer():
        raise ParseError(f'"{key}" must be an integer, got {json.dumps(value)}')
    return int(value)


def json_list(value, message: str) -> list:
    """``value`` if it is a JSON array (a ``list``), else a ParseError carrying ``message``."""
    if not isinstance(value, list):
        raise ParseError(message)
    return value


def parse_phfe(obj: dict, default_tau: int | None = None) -> PHFE:
    """Parse one element from its JSON object form.

    Accepts either the plain pair form or the linguistic form; a
    linguistic object may omit "tau" when ``default_tau`` is given.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    if "pairs" in obj:
        key, kind, tau = "v", "pair", None
    elif "terms" in obj:
        key, kind = "t", "term"
        tau = json_number(obj, "tau", integral=True) if "tau" in obj else default_tau
        if tau is None:
            raise ParseError('linguistic element without "tau"')
    else:
        raise ParseError('element object needs "pairs" or "terms"')
    items = json_list(obj[kind + "s"], f'"{kind}s" must be a list')
    integral = tau is not None
    try:  # item by item: v (or t), then p
        raw = [(json_number(item, key, integral), json_number(item, "p")) for item in items]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed {kind} list: {exc}") from exc
    return canonicalize(raw) if tau is None else from_linguistic(raw, LinguisticScale(tau))


def parse_phfe_list(obj) -> list[PHFE]:
    """Parse a JSON array of elements, or a single element object."""
    if isinstance(obj, dict):
        if "phfes" not in obj:
            return [parse_phfe(obj)]
        obj = obj["phfes"]
    return list(map(parse_phfe, json_list(obj, "expected an element object or an array of them")))


def phfe_to_dict(a: PHFE) -> dict:
    """JSON object form of an element."""
    return {"pairs": [{"v": v, "p": p} for v, p in a]}
