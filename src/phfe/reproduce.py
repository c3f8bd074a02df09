"""Recompute the bundled reference tables and flag agreement per cell.

Each bundled table carries the published values next to a grade:
"accept" rows must match at their stated tolerance for the run to
succeed, while "report" rows cover the documented inconsistencies in the
source material; they are surfaced with a REPORT flag but do not fail
the run unless strict mode is requested.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from .elements import parse_phfe
from .entropy import EntropyConfig, all_configs, measure_value, parse_measure
from .mcdm import entropy_weights, format_number, parse_decision_matrix, run_topsis

_TABLE_NUMBERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)


@dataclass(frozen=True)
class Check:
    table: int
    label: str
    grade: str  # "accept" | "report"
    ok: bool
    detail: str


@dataclass
class TableBlock:
    table: int
    caption: str
    lines: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)


def load_table(number: int) -> dict:
    name = f"table{number:02d}.json"
    data = resources.files("phfe.reference_tables").joinpath(name).read_text()
    return json.loads(data)


def _order_string(names: list[str], values: list[float]) -> str:
    ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
    parts = [names[ranked[0]]]
    for prev, cur in zip(ranked, ranked[1:]):
        sep = " = " if values[prev] == values[cur] else " > "
        parts.append(sep + names[cur])
    return "".join(parts)


def _value_rows_block(spec: dict) -> TableBlock:
    block = TableBlock(spec["table"], spec["caption"])
    names = spec["input_order"]
    inputs = {k: parse_phfe(v) for k, v in spec["inputs"].items()}
    header = f"{'measure':<16s}" + "".join(f"{n:>12s}" for n in names)
    block.lines.append(header + "  ordering")
    for row in spec["rows"]:
        # Table ids tag their kind ("fuzz:r1", "ns:f1", "comp:r1:f1:max").
        measure = parse_measure(re.sub(r"^(fuzz|ns|comp):", "", row["measure"]))
        computed = [measure_value(measure, inputs[n]) for n in names]
        order = _order_string(names, computed)
        block.lines.append(
            f"{row['measure']:<16s}"
            + "".join(f"{format_number(v):>12s}" for v in computed)
            + f"  {order}"
        )
        printed = row.get("printed")
        if printed is not None:
            tol = row["tolerance"]
            flags = [abs(c - p) <= tol for c, p in zip(computed, printed)]
            cells = ", ".join(
                f"{name} {format_number(p)}->{format_number(c)} {'ok' if good else 'DIFF'}"
                for name, p, c, good in zip(names, printed, computed, flags)
            )
            block.checks.append(
                Check(
                    spec["table"],
                    f"{row['measure']} values",
                    row["grade"],
                    all(flags),
                    f"per cell at tol {tol:g}: {cells}",
                )
            )
        if row.get("expect_equal"):
            ok = len(set(computed)) == 1
            block.checks.append(
                Check(
                    spec["table"],
                    f"{row['measure']} cannot separate the inputs",
                    "accept",
                    ok,
                    "computed [" + ", ".join(format_number(c) for c in computed) + "]",
                )
            )
        printed_order = row.get("printed_order")
        if printed_order is not None:
            computed_order = sorted(range(len(computed)), key=lambda i: (-computed[i], i))
            ok = [names[i] for i in computed_order] == printed_order and len(
                set(computed)
            ) == len(computed)
            block.checks.append(
                Check(
                    spec["table"],
                    f"{row['measure']} ordering",
                    row.get("order_grade") or "report",
                    ok,
                    f"printed {' > '.join(printed_order)} vs computed {order}",
                )
            )
    return block


def _matrix_from_fixture() -> tuple:
    spec = load_table(9)
    matrix = parse_decision_matrix(spec["matrix"])
    return spec, matrix


def _table9_block() -> TableBlock:
    spec, matrix = _matrix_from_fixture()
    block = TableBlock(9, spec["caption"])
    names = [c.name for c in matrix.criteria]
    block.lines.append("canonical cells after zero-probability and duplicate cleanup:")
    block.lines.append(f"{'':<6s}" + "".join(f"{n:<54s}" for n in names))
    for i, alt in enumerate(matrix.alternatives):
        cells = [repr(matrix.cells[i][j]) for j in range(len(names))]
        block.lines.append(f"{alt:<6s}" + "".join(f"{c:<54s}" for c in cells))
    block.checks.append(
        Check(9, "matrix parses and canonicalizes", "accept", True, "3x4 grid, all cells canonical")
    )
    return block


def _table10_block() -> TableBlock:
    spec = load_table(10)
    _, matrix = _matrix_from_fixture()
    block = TableBlock(10, spec["caption"])
    names = [c.name for c in matrix.criteria]
    block.lines.append(
        f"{'config':<14s}" + "".join(f"{n:>10s}" for n in names) + "  (raw)  ordering"
    )
    for comp in spec["comparison_rows"]:
        block.lines.append(
            f"# {comp['label']}: ["
            + ", ".join(format_number(v) for v in comp["printed"])
            + "] ordering "
            + " > ".join(comp["printed_order"])
        )
    for row in spec["rows"]:
        config = EntropyConfig.from_string(row["config"])
        weights = entropy_weights(matrix, config)
        order = _order_string(names, list(weights.raw))
        block.lines.append(
            f"{row['config']:<14s}"
            + "".join(f"{format_number(w):>10s}" for w in weights.raw)
            + f"         {order}"
        )
        flags = [
            abs(c - p) <= row["tolerance"]
            for c, p in zip(weights.raw, row["printed_raw"])
        ]
        cells = ", ".join(
            f"{name} {format_number(p)}->{format_number(c)} {'ok' if good else 'DIFF'}"
            for name, p, c, good in zip(names, row["printed_raw"], weights.raw, flags)
        )
        block.checks.append(
            Check(
                10,
                f"raw weights [{row['config']}]",
                row["grade"],
                all(flags),
                f"per cell at tol {row['tolerance']:g}: {cells}",
            )
        )
        argmax_ok = names[weights.argmax] == "c3"
        block.checks.append(
            Check(
                10,
                f"largest weight lands on c3 [{row['config']}]",
                row["argmax_grade"],
                argmax_ok,
                f"computed argmax {names[weights.argmax]}",
            )
        )
        if row["config"] == "r1:f1:max":
            total = sum(weights.normalized)
            block.checks.append(
                Check(
                    10,
                    "normalized weights sum to one [r1:f1:max]",
                    "accept",
                    abs(total - 1.0) <= 1e-9,
                    f"sum {total!r}",
                )
            )
    return block


def _table11_block() -> TableBlock:
    spec = load_table(11)
    _, matrix = _matrix_from_fixture()
    block = TableBlock(11, spec["caption"])
    for comp in spec["comparison_rows"]:
        block.lines.append(
            f"# {comp['label']}: "
            + " > ".join(comp["printed_ranking"])
            + "  scores ["
            + ", ".join(format_number(v) for v in comp["printed_scores"])
            + "]"
        )
    rankings = {}
    block.lines.append(f"{'config':<14s}{'closeness':<36s}ranking")
    for config in all_configs():
        result = run_topsis(matrix, config)
        ranking = [matrix.alternatives[i] for i in result.ranking]
        rankings[config.label] = (ranking, result.closeness)
        scores = "[" + ", ".join(format_number(c) for c in result.closeness) + "]"
        block.lines.append(f"{config.label:<14s}{scores:<36s}" + " > ".join(ranking))
    for row in spec["rows"]:
        ranking, scores = rankings[row["config"]]
        ok = ranking == row["printed_ranking"]
        block.checks.append(
            Check(
                11,
                f"ranking [{row['config']}]",
                row["grade"],
                ok,
                f"printed {' > '.join(row['printed_ranking'])} vs computed {' > '.join(ranking)}",
            )
        )
    return block


#: Known divergences between the published tables and the stated formulas.
DOCUMENTED_DEVIATIONS = (
    "the r2 fuzziness kernel as published peaks at 5/6 (not 1) at (1/2, 1/2) "
    "and is not reflection symmetric; its published row is checked as an ordering only",
    "the published non-specificity values match neither the stated divisor "
    "max(2, l(l-1)) nor an l(l+1) variant; value cells in tables 2-8 are report-only",
    "published criteria-weight rows do not sum to one and are compared "
    "against raw pre-normalisation weights",
    "the published case-study rankings descend from the non-reproducible "
    "non-specificity values; recomputed rankings are reported alongside",
)


def reproduce_all() -> list[TableBlock]:
    blocks = []
    for number in _TABLE_NUMBERS:
        if number <= 8:
            blocks.append(_value_rows_block(load_table(number)))
        elif number == 9:
            blocks.append(_table9_block())
        elif number == 10:
            blocks.append(_table10_block())
        else:
            blocks.append(_table11_block())
    return blocks


def render_report(blocks: list[TableBlock], strict: bool = False) -> tuple[str, int]:
    """Text report plus exit code: 0 when every gating check matches."""
    lines = []
    failed = 0
    for block in blocks:
        lines.append(f"=== table {block.table}: {block.caption} ===")
        lines.extend(block.lines)
        for check in block.checks:
            gating = check.grade == "accept" or strict
            if check.ok:
                flag = "MATCH" if check.grade == "accept" else "MATCH (report-only)"
            elif gating:
                flag = "MISMATCH"
                failed += 1
            else:
                flag = "MISMATCH (report-only)"
            lines.append(f"  [{flag}] {check.label}: {check.detail}")
        lines.append("")
    lines.append("documented deviations:")
    for item in DOCUMENTED_DEVIATIONS:
        lines.append(f"  - {item}")
    lines.append("")
    accept = [c for b in blocks for c in b.checks if c.grade == "accept"]
    report = [c for b in blocks for c in b.checks if c.grade != "accept"]
    lines.append(
        f"gating checks: {sum(c.ok for c in accept)}/{len(accept)} matched; "
        f"report-only: {sum(c.ok for c in report)}/{len(report)} matched"
    )
    return "\n".join(lines), (1 if failed else 0)
