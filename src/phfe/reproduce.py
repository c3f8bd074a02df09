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
from importlib import resources

from .elements import Frozen, _ltr_sum, format_number, parse_phfe
from .entropy import all_configs, measure_value, parse_measure
from .mcdm import DecisionMatrix, _ranking, parse_decision_matrix, run_topsis


class Check(Frozen):
    def __init__(self, label: str, grade: str, ok: bool, detail: str) -> None:
        # grade is "accept" or "report"
        self.__dict__.update(label=label, grade=grade, ok=ok, detail=detail)


class TableBlock:
    def __init__(self, table: int, caption: str) -> None:
        self.table, self.caption = table, caption
        self.lines: list[str] = []
        self.checks: list[Check] = []

    def check(self, label: str, grade: str, ok: bool, detail: str) -> None:
        self.checks.append(Check(label, grade, ok, detail))


def load_table(number: int) -> dict:
    name = f"table{number:02d}.json"
    data = resources.files("phfe.reference_tables").joinpath(name).read_text()
    return json.loads(data)


def _order_string(names: list[str], values: list[float]) -> str:
    ranked = _ranking(values)
    parts = [names[ranked[0]]]
    for prev, cur in zip(ranked, ranked[1:]):
        sep = " = " if values[prev] == values[cur] else " > "
        parts.append(sep + names[cur])
    return "".join(parts)


def _cells_check(block: TableBlock, label: str, row: dict, names, printed, computed) -> None:
    """Each computed cell within the row's tolerance of its printed value, at its grade."""
    tol = row["tolerance"]
    flags = [abs(c - p) <= tol for c, p in zip(computed, printed)]
    cells = ", ".join(
        f"{name} {format_number(p)}->{format_number(c)} {'ok' if good else 'DIFF'}"
        for name, p, c, good in zip(names, printed, computed, flags)
    )
    block.check(label, row["grade"], all(flags), f"per cell at tol {format_number(tol)}: {cells}")


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
        if row.get("printed") is not None:
            _cells_check(block, f"{row['measure']} values", row, names, row["printed"], computed)
        if row.get("expect_equal"):
            block.check(
                f"{row['measure']} cannot separate the inputs",
                "accept",
                len(set(computed)) == 1,
                "computed [" + ", ".join(format_number(c) for c in computed) + "]",
            )
        if row.get("printed_order") is not None:
            # A tie shows as " = " in the computed order, so it never matches.
            printed_order = " > ".join(row["printed_order"])
            block.check(
                f"{row['measure']} ordering",
                row.get("order_grade") or "report",
                order == printed_order,
                f"printed {printed_order} vs computed {order}",
            )
    return block


def _table9_block(spec: dict, matrix: DecisionMatrix) -> TableBlock:
    block = TableBlock(9, spec["caption"])
    names = [c.name for c in matrix.criteria]
    block.lines.append("canonical cells after zero-probability and duplicate cleanup:")
    block.lines.append(f"{'':<6s}" + "".join(f"{n:<54s}" for n in names))
    for i, alt in enumerate(matrix.alternatives):
        cells = [repr(matrix.cells[i][j]) for j in range(len(names))]
        block.lines.append(f"{alt:<6s}" + "".join(f"{c:<54s}" for c in cells))
    # Each cell holds exactly the distinct t / (2 tau) of its raw positive-probability terms.
    tau = spec["matrix"]["tau"]
    raw = [[sorted({t["t"] / (2 * tau) for t in c["terms"] if t["p"] > 0}) for c in row]
           for row in spec["matrix"]["cells"]]
    ok = matrix.shape == (3, 4) and raw == [[list(c.values) for c in row] for row in matrix.cells]
    block.check("matrix parses and canonicalizes", "accept", ok, "3x4 grid, all cells canonical")
    return block


def _table10_block(spec: dict, matrix: DecisionMatrix, results: dict) -> TableBlock:
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
        weights = results[row["config"]].weights
        order = _order_string(names, list(weights.raw))
        block.lines.append(
            f"{row['config']:<14s}"
            + "".join(f"{format_number(w):>10s}" for w in weights.raw)
            + f"         {order}"
        )
        label = f"raw weights [{row['config']}]"
        _cells_check(block, label, row, names, row["printed_raw"], weights.raw)
        argmax = names[weights.argmax]
        block.check(
            f"largest weight lands on c3 [{row['config']}]",
            row["argmax_grade"],
            argmax == "c3",
            f"computed argmax {argmax}",
        )
        if row["config"] == "r1:f1:max":
            total = _ltr_sum(weights.normalized)
            block.check(
                "normalized weights sum to one [r1:f1:max]",
                "accept",
                abs(total - 1.0) <= 1e-9,
                f"sum {total!r}",
            )
    return block


def _table11_block(spec: dict, matrix: DecisionMatrix, results: dict) -> TableBlock:
    block = TableBlock(11, spec["caption"])
    for comp in spec["comparison_rows"]:
        block.lines.append(
            f"# {comp['label']}: "
            + " > ".join(comp["printed_ranking"])
            + "  scores ["
            + ", ".join(format_number(v) for v in comp["printed_scores"])
            + "]"
        )
    block.lines.append(f"{'config':<14s}{'closeness':<36s}ranking")
    for label, result in results.items():
        ranking = [matrix.alternatives[i] for i in result.ranking]
        scores = "[" + ", ".join(format_number(c) for c in result.closeness) + "]"
        block.lines.append(f"{label:<14s}{scores:<36s}" + " > ".join(ranking))
    for row in spec["rows"]:
        ranking = [matrix.alternatives[i] for i in results[row["config"]].ranking]
        block.check(
            f"ranking [{row['config']}]",
            row["grade"],
            ranking == row["printed_ranking"],
            f"printed {' > '.join(row['printed_ranking'])} vs computed {' > '.join(ranking)}",
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
    blocks = [_value_rows_block(load_table(number)) for number in range(1, 9)]
    # Tables 9-11 all read the case-study matrix of table 9, parsed once.
    case_study = load_table(9)
    matrix = parse_decision_matrix(case_study["matrix"])
    # One pipeline run per config feeds both Table 10 (weights) and Table 11.
    results = {config.label: run_topsis(matrix, config) for config in all_configs()}
    blocks.append(_table9_block(case_study, matrix))
    blocks.append(_table10_block(load_table(10), matrix, results))
    blocks.append(_table11_block(load_table(11), matrix, results))
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
