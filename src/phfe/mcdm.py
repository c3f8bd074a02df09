"""Entropy-weighted TOPSIS over a decision matrix of elements.

Criteria weights come from the mean comprehensive entropy per column
(less entropy, more weight).  Alternatives are then scored by their
weighted entropy-based distances to the criterion-wise ideal elements
and ranked by relative closeness, larger is better.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from .distance import PSI_IDENTITY, PsiFunction, distance_from_entropy
from .elements import PHFE, Frozen, _ltr_sum, _pi_column, format_number, json_list, json_number
from .elements import parse_phfe, phfe_to_dict
from .entropy import DEFAULT_CONFIG, EntropyConfig, _pairwise_columns
from .errors import DegenerateWeightsError, OutOfRangeError, ParseError, PhfeError
from .errors import ZeroDenominatorError

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
    """(fuzziness, non-specificity) arrays, row-major, of the cells, then of their hybrids with
    {1|1} and {0|1}.  Kept on the matrix per kernel pair (per r too), so 18 configs cost 6
    batched passes; the first call, weights alone included, fills all three pairs.

    The hybrids are built in place a column at a time: values (1 - |v - 1|) / 2 in the cell's
    order and (1 - v) / 2 in reverse, under the weights pi(p, 1).  That is the sorted
    ``hybrid`` bit for bit unless 1 - v rounds two values together (below 1/2, less than about
    1.1e-16 apart), where a sum may move by an ulp.  Cells of one length make one batch for
    _pairwise_columns."""
    key = (config.fuzziness, config.nonspecificity)
    if key not in matrix._tables:
        cells = [c for row in matrix.cells for c in row]
        groups, order, lists = {}, [], [[] for _ in range(6)]
        for k, a in enumerate(cells):
            groups.setdefault(len(a.values), []).append(k)
        for ks in groups.values():  # column i: entry i of every cell's lane, then {1|1}'s, {0|1}'s
            n = len(ks)
            vs = list(map(list, zip(*[cells[k].values for k in ks])))
            ps = list(map(list, zip(*[cells[k].probs for k in ks])))
            ws = [_pi_column(p, [1.0] * n) for p in ps]
            sums = _pairwise_columns(
                [v + [(1.0 - abs(x - 1.0)) / 2.0 for x in v] + [(1.0 - x) / 2.0 for x in e]
                 for v, e in zip(vs, vs[::-1])],
                [p + w + e for p, w, e in zip(ps, ws, ws[::-1])], *key)
            for out, lanes in zip(lists, (s[c * n:(c + 1) * n] for c in range(3) for s in sums)):
                out += lanes
            order += ks
        place = sorted(range(len(cells)), key=order.__getitem__)  # cell k's sums: out[place[k]]
        columns = [array("d", [out[k] for k in place]) for out in lists]
        matrix._tables[key] = tuple(zip(columns[::2], columns[1::2]))
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
    cell, _, _ = _columns(matrix, config)
    entropies = config.theta._fn(*cell)
    raw = [1.0 - _ltr_sum(entropies[j::n]) / m for j in range(n)]
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
    if len(weights.normalized) != n:
        raise OutOfRangeError(f"{n} criteria but {len(weights.normalized)} weights")
    _, full, empty = _columns(matrix, config)
    to_full, to_empty = (distance_from_entropy(config.theta._fn(*s), psi) for s in (full, empty))
    plus, minus = [0.0] * m, [0.0] * m
    for j, (w, c) in enumerate(zip(weights.normalized, matrix.criteria)):
        pos, neg = (to_full, to_empty) if c.kind == "benefit" else (to_empty, to_full)
        plus = [t + w * d for t, d in zip(plus, pos[j::n])]
        minus = [t + w * d for t, d in zip(minus, neg[j::n])]
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
    scores = []
    for name, plus, minus in zip(matrix.alternatives, d_plus, d_minus):
        try:
            scores.append(closeness(plus, minus))
        except ZeroDenominatorError:
            message = f"alternative {name!r:.40} has zero distance to both ideals"
            raise ZeroDenominatorError(message) from None
    return TopsisResult(weights, d_plus, d_minus, tuple(scores), _ranking(scores))


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


def parse_decision_matrix(obj: dict) -> DecisionMatrix:
    """Parse a decision matrix from its JSON object form, as ``json.load`` yields it.

    Objects are dicts and arrays lists (``json_list``): a string, object or tuple there is refused.
    A linguistic cell without its own "tau" falls back to the matrix-level value.  Each cell is
    parsed once; a refused one is named ``cells[i][j]: <message>`` under its own exception type.
    """
    if not isinstance(obj, dict):
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
            for c in json_list(obj["criteria"], '"criteria" must be a list')
        )
        names, rows = obj["alternatives"], obj["cells"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed decision matrix: {exc}") from exc
    names = json_list(names, "decision matrix alternatives must be a list of names")
    shape = "decision matrix cells must be a list of rows, each a list of elements"
    cells = [[None] * len(json_list(row, shape)) for row in json_list(rows, shape)]
    default_tau = json_number(obj, "tau", integral=True) if "tau" in obj else None
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                cells[i][j] = parse_phfe(cell, default_tau)
            except PhfeError as exc:
                raise type(exc)(f"cells[{i}][{j}]: {exc}") from None
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
    lines = ["criterion  " + "  ".join(f"{c.name:>10s}" for c in matrix.criteria)]
    for label, weights in (("raw", result.weights.raw), ("weight", result.weights.normalized)):
        lines.append(f"{label:<11s}" + "  ".join(f"{format_number(w):>10s}" for w in weights))
    header = f"{'alternative':<12s} {'d_plus':>10s} {'d_minus':>10s} {'closeness':>10s} {'rank':>5s}"
    lines += ["", header]
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
