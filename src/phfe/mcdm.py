"""Entropy-weighted TOPSIS over a decision matrix of elements.

Criteria weights come from the mean comprehensive entropy per column
(less entropy, more weight).  Alternatives are then scored by their
weighted entropy-based distances to the criterion-wise ideal elements
and ranked by relative closeness, larger is better.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from itertools import repeat
from operator import add, mul

from .distance import PSI_IDENTITY, PsiFunction, distance_from_entropy, topsis_components
from .elements import PHFE, Frozen, _ltr_sum, format_number, json_number, parse_phfe, phfe_to_dict
from .entropy import DEFAULT_CONFIG, EntropyConfig
from .errors import DegenerateWeightsError, ParseError, ZeroDenominatorError

_KINDS = ("benefit", "cost")


class CriterionSpec(Frozen):
    """A named criterion with its polarity."""

    def __init__(self, name: str, kind: str = "benefit") -> None:
        if kind not in _KINDS:
            raise ParseError(f"criterion kind must be benefit or cost, got {kind!r:.40}")
        self.__dict__.update(name=name, kind=kind)


class DecisionMatrix(Frozen):
    """m alternatives assessed against n criteria, one element per cell."""

    def __init__(
        self,
        alternatives: tuple[str, ...],
        criteria: tuple[CriterionSpec, ...],
        cells: tuple[tuple[PHFE, ...], ...],
    ) -> None:
        # Tuples throughout: the matrix hashes, and _tables stays valid.
        alternatives, criteria = tuple(alternatives), tuple(criteria)
        cells = tuple(map(tuple, cells))
        m, n = len(alternatives), len(criteria)
        if m < 1 or n < 1:
            raise ParseError("matrix needs at least one alternative and one criterion")
        if len({c.name for c in criteria}) != n:
            raise ParseError("criterion names must be unique")
        if len(set(alternatives)) != m:
            raise ParseError("alternative names must be unique")
        if len(cells) != m or any(len(row) != n for row in cells):
            raise ParseError(f"cell grid must be {m}x{n}")
        # _tables (see _columns) is no __init__ parameter, so it is neither compared nor shown.
        self.__dict__.update(alternatives=alternatives, criteria=criteria, cells=cells, _tables={})

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.alternatives), len(self.criteria)


def _columns(matrix: DecisionMatrix, config: EntropyConfig):
    """Row-major arrays of ``topsis_components(cell, config)``: the cell's 2 sums, then its
    hybrids' with {1|1} and {0|1}.  Kept on the matrix per kernel pair (per r too), so 18
    configs cost 6 passes; the first call, weights alone included, fills all 6 columns."""
    key = (config.fuzziness, config.nonspecificity)
    if key not in matrix._tables:
        table = [topsis_components(c, config) for row in matrix.cells for c in row]
        matrix._tables[key] = tuple(array("d", column) for column in zip(*table))
    return matrix._tables[key]


class WeightVector(Frozen):
    """Criterion weights before and after normalisation."""

    def __init__(self, raw: tuple[float, ...], normalized: tuple[float, ...]) -> None:
        self.__dict__.update(raw=raw, normalized=normalized)

    @property
    def argmax(self) -> int:
        return _ranking(self.normalized)[0]


class TopsisResult(Frozen):
    """One TOPSIS run: weights, weighted distances to both ideals, closeness, ranking."""

    def __init__(
        self,
        weights: WeightVector,
        d_plus: tuple[float, ...],
        d_minus: tuple[float, ...],
        closeness: tuple[float, ...],
        ranking: tuple[int, ...],
    ) -> None:
        self.__dict__.update(
            weights=weights, d_plus=d_plus, d_minus=d_minus, closeness=closeness, ranking=ranking
        )


def entropy_weights(
    matrix: DecisionMatrix, config: EntropyConfig = DEFAULT_CONFIG
) -> WeightVector:
    """Weights from mean column entropy: raw_j = 1 - mean entropy of column j.

    Raw weights are normalised by their sum, which equals n minus the sum
    of the mean entropies.  Raises when that sum is exactly zero, i.e.
    every cell has entropy one.
    """
    m, n = matrix.shape
    fuzz, nonspec = _columns(matrix, config)[:2]
    combine = config.theta._fn
    raw = [1.0 - _ltr_sum(map(combine, fuzz[j::n], nonspec[j::n])) / m for j in range(n)]
    denom = _ltr_sum(raw)
    if denom <= 0.0:
        raise DegenerateWeightsError("every cell has entropy 1; weights undefined")
    return WeightVector(tuple(raw), tuple(w / denom for w in raw))


def ideal_distances(
    matrix: DecisionMatrix,
    weights: WeightVector,
    psi: PsiFunction = PSI_IDENTITY,
    config: EntropyConfig = DEFAULT_CONFIG,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Weighted distances of every alternative to the two ideal profiles.

    For a benefit criterion the positive ideal is {1|1} and the negative
    ideal {0|1}; a cost criterion swaps them.  Each alternative's sums add
    its weighted distances criterion by criterion, left to right from 0.0,
    so the result does not depend on evaluation order.
    """
    m, n = matrix.shape
    sums = _columns(matrix, config)[2:]
    to_full, to_empty = (
        [distance_from_entropy(e, psi) for e in map(config.theta._fn, fuzz, nonspec)]
        for fuzz, nonspec in (sums[:2], sums[2:])
    )
    plus, minus = [0.0] * m, [0.0] * m
    for j, (w, c) in enumerate(zip(weights.normalized, matrix.criteria)):
        pos, neg = (to_full, to_empty) if c.kind == "benefit" else (to_empty, to_full)
        # A list each step: lazy maps would nest one C level per criterion.
        plus = list(map(add, plus, map(mul, repeat(w), pos[j::n])))
        minus = list(map(add, minus, map(mul, repeat(w), neg[j::n])))
    return tuple(plus), tuple(minus)


def closeness(d_plus: float, d_minus: float) -> float:
    """Relative closeness d_minus / (d_plus + d_minus), in [0, 1]."""
    denom = d_plus + d_minus
    if denom == 0.0:
        raise ZeroDenominatorError("alternative has zero distance to both ideals")
    return d_minus / denom


def run_topsis(
    matrix: DecisionMatrix,
    config: EntropyConfig = DEFAULT_CONFIG,
    psi: PsiFunction = PSI_IDENTITY,
) -> TopsisResult:
    """Full pipeline: weights, ideal distances, closeness, descending ranking.

    Ties in closeness keep the original alternative order.
    """
    weights = entropy_weights(matrix, config)
    d_plus, d_minus = ideal_distances(matrix, weights, psi, config)
    scores = tuple(map(closeness, d_plus, d_minus))
    return TopsisResult(weights, d_plus, d_minus, scores, _ranking(scores))


def _ranking(values: Sequence[float]) -> tuple[int, ...]:
    """Indices of ``values`` from largest to smallest; ties keep input order."""
    return tuple(sorted(range(len(values)), key=values.__getitem__, reverse=True))  # stable


# ---------------------------------------------------------------------------
# JSON form
#
# {"criteria": [{"name": "c1", "kind": "benefit"}, ...],
#  "alternatives": ["x1", ...],
#  "cells": [[element-or-linguistic, ...], ...],
#  "tau": 3}
# ---------------------------------------------------------------------------


def parse_decision_matrix(obj: Mapping) -> DecisionMatrix:
    """Parse a decision matrix from its JSON object form.

    Each cell may be a plain element or a linguistic one; linguistic cells
    without their own "tau" fall back to the matrix-level value.
    """
    if not isinstance(obj, Mapping):
        raise ParseError("decision matrix must be a JSON object")

    def text(value, field: str) -> str:
        if not isinstance(value, str):
            raise ParseError(f"{field} must be a string, got {value!r:.40}")
        if any(c < " " or "\x7f" <= c <= "\x9f" for c in value):  # one table or CSV row per name
            raise ParseError(f"{field} {value!r:.40} holds a control character")
        return value

    try:
        criteria = tuple(
            CriterionSpec(text(c["name"], "criterion name"), c.get("kind", "benefit"))
            for c in obj["criteria"]
        )
        names = obj["alternatives"]
        rows = obj["cells"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed decision matrix: {exc}") from exc
    if not isinstance(names, list):
        raise ParseError("decision matrix alternatives must be a list of names")
    if not isinstance(rows, Sequence) or not all(isinstance(row, Sequence) for row in rows):
        raise ParseError("decision matrix cells must be a list of rows, each a list of elements")
    default_tau = json_number(obj, "tau", integral=True) if "tau" in obj else None
    cells = tuple(
        tuple(parse_phfe(cell, default_tau) for cell in row) for row in rows
    )
    return DecisionMatrix(tuple(text(a, "alternative name") for a in names), criteria, cells)


def matrix_to_dict(matrix: DecisionMatrix) -> dict:
    return {
        "criteria": [{"name": c.name, "kind": c.kind} for c in matrix.criteria],
        "alternatives": list(matrix.alternatives),
        "cells": [[phfe_to_dict(cell) for cell in row] for row in matrix.cells],
    }


def result_to_dict(result: TopsisResult, matrix: DecisionMatrix) -> dict:
    """JSON form of a TOPSIS run, alternatives named, best first in ranking."""
    return {
        "weights": {
            "raw": list(result.weights.raw),
            "normalized": list(result.weights.normalized),
        },
        "d_plus": list(result.d_plus),
        "d_minus": list(result.d_minus),
        "closeness": list(result.closeness),
        "ranking": [matrix.alternatives[i] for i in result.ranking],
    }


def format_result_table(result: TopsisResult, matrix: DecisionMatrix) -> str:
    """Aligned text rendering of a TOPSIS run, six significant digits."""
    lines = []
    crit_names = [c.name for c in matrix.criteria]
    lines.append("criterion  " + "  ".join(f"{n:>10s}" for n in crit_names))
    for label, weights in (("raw", result.weights.raw), ("weight", result.weights.normalized)):
        lines.append(f"{label:<11s}" + "  ".join(f"{format_number(w):>10s}" for w in weights))
    lines.append("")
    header = f"{'alternative':<12s} {'d_plus':>10s} {'d_minus':>10s} {'closeness':>10s} {'rank':>5s}"
    lines.append(header)
    position = {alt: k + 1 for k, alt in enumerate(result.ranking)}
    for i, name in enumerate(matrix.alternatives):
        lines.append(
            f"{name:<12s} {format_number(result.d_plus[i]):>10s} "
            f"{format_number(result.d_minus[i]):>10s} "
            f"{format_number(result.closeness[i]):>10s} {position[i]:>5d}"
        )
    lines.append("")
    lines.append("ranking: " + " > ".join(matrix.alternatives[i] for i in result.ranking))
    return "\n".join(lines)
