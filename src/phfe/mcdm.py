"""Entropy-weighted TOPSIS over a decision matrix of elements.

Criteria weights come from the mean comprehensive entropy per column
(less entropy, more weight).  Alternatives are then scored by their
weighted entropy-based distances to the criterion-wise ideal elements
and ranked by relative closeness, larger is better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .distance import PSI_IDENTITY, PsiFunction, entropy_distance
from .elements import PHFE, canonicalize, parse_phfe, phfe_to_dict
from .entropy import DEFAULT_CONFIG, EntropyConfig, comprehensive_entropy
from .errors import DegenerateWeightsError, ParseError, ZeroDenominatorError

#: Ideal elements for a benefit criterion; a cost criterion swaps them.
FULL_ELEMENT = canonicalize([(1.0, 1.0)])
EMPTY_ELEMENT = canonicalize([(0.0, 1.0)])

_KINDS = ("benefit", "cost")


@dataclass(frozen=True)
class CriterionSpec:
    """A named criterion with its polarity."""

    name: str
    kind: str = "benefit"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParseError(f"criterion kind must be benefit or cost, got {self.kind!r}")


@dataclass(frozen=True)
class DecisionMatrix:
    """m alternatives assessed against n criteria, one element per cell."""

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    cells: tuple[tuple[PHFE, ...], ...]

    def __post_init__(self) -> None:
        m, n = len(self.alternatives), len(self.criteria)
        if m < 1 or n < 1:
            raise ParseError("matrix needs at least one alternative and one criterion")
        if len({c.name for c in self.criteria}) != n:
            raise ParseError("criterion names must be unique")
        if len(self.cells) != m or any(len(row) != n for row in self.cells):
            raise ParseError(f"cell grid must be {m}x{n}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.alternatives), len(self.criteria)


@dataclass(frozen=True)
class WeightVector:
    """Criterion weights before and after normalisation."""

    raw: tuple[float, ...]
    normalized: tuple[float, ...]

    @property
    def argmax(self) -> int:
        return max(range(len(self.normalized)), key=self.normalized.__getitem__)


@dataclass(frozen=True)
class TopsisResult:
    weights: WeightVector
    d_plus: tuple[float, ...]
    d_minus: tuple[float, ...]
    closeness: tuple[float, ...]
    ranking: tuple[int, ...]


def entropy_weights(
    matrix: DecisionMatrix, config: EntropyConfig = DEFAULT_CONFIG
) -> WeightVector:
    """Weights from mean column entropy: raw_j = 1 - mean entropy of column j.

    Raw weights are normalised by their sum, which equals n minus the sum
    of the mean entropies.  Raises when that sum is exactly zero, i.e.
    every cell has entropy one.
    """
    m, n = matrix.shape
    raw = []
    for j in range(n):
        col_mean = (
            sum(comprehensive_entropy(matrix.cells[i][j], config) for i in range(m)) / m
        )
        raw.append(1.0 - col_mean)
    denom = sum(raw)
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
    ideal {0|1}; a cost criterion swaps them.  Sums run row-major so the
    result does not depend on evaluation order.
    """
    m, n = matrix.shape
    d_plus, d_minus = [], []
    for i in range(m):
        plus = minus = 0.0
        for j in range(n):
            benefit = matrix.criteria[j].kind == "benefit"
            pos = FULL_ELEMENT if benefit else EMPTY_ELEMENT
            neg = EMPTY_ELEMENT if benefit else FULL_ELEMENT
            w = weights.normalized[j]
            plus += w * entropy_distance(matrix.cells[i][j], pos, psi, config)
            minus += w * entropy_distance(matrix.cells[i][j], neg, psi, config)
        d_plus.append(plus)
        d_minus.append(minus)
    return tuple(d_plus), tuple(d_minus)


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
    scores = tuple(closeness(p, m_) for p, m_ in zip(d_plus, d_minus))
    ranking = tuple(sorted(range(len(scores)), key=lambda i: (-scores[i], i)))
    return TopsisResult(weights, d_plus, d_minus, scores, ranking)


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
    try:
        criteria = tuple(
            CriterionSpec(str(c["name"]), str(c.get("kind", "benefit")))
            for c in obj["criteria"]
        )
        alternatives = tuple(str(a) for a in obj["alternatives"])
        rows = obj["cells"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed decision matrix: {exc}") from exc
    default_tau = obj.get("tau")
    cells = tuple(
        tuple(parse_phfe(cell, default_tau) for cell in row) for row in rows
    )
    return DecisionMatrix(alternatives, criteria, cells)


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


def format_number(x: float) -> str:
    """Six significant digits: the precision of every reported number."""
    return format(x, ".6g")


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
    lines.append(
        "ranking: " + " > ".join(matrix.alternatives[i] for i in result.ranking)
    )
    return "\n".join(lines)
