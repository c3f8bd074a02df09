"""Command-line front-end: entropy, distance, topsis, reproduce, axioms.

Exit codes: 0 on success, 1 when a property or gating check fails, 2 for
usage or input errors.  Output is deterministic for identical inputs,
flags, and seeds; every number is printed with six significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Sequence

from .distance import ALL_PSI, PSI_IDENTITY, PsiFunction, entropy_distance
from .elements import PHFE, format_number, parse_phfe_list
from .entropy import (
    DEFAULT_CONFIG,
    EntropyConfig,
    Measure,
    entropy_components,
    measure_value,
    parse_measure,
)
from .errors import ParseError, PhfeError
from .mcdm import format_result_table, parse_decision_matrix, result_to_dict, run_topsis


def _round6(obj):
    """Recursively shorten floats to six significant digits for reports."""
    if isinstance(obj, float):
        return float(format_number(obj))
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _measure_row(measure: Measure, a: PHFE) -> dict:
    """One measure row: the value plus, for a config, its two components."""
    if not isinstance(measure, EntropyConfig):
        return {"value": measure_value(measure, a)}
    fuzz, ns = entropy_components(a, measure)
    return {"value": measure.theta.combine(fuzz, ns), "fuzziness": fuzz, "nonspecificity": ns}


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            # Malformed JSON, bad UTF-8, or an integer past Python's digit limit.
            raise ParseError(str(exc)) from None
        except RecursionError:
            raise ParseError("JSON nested too deeply") from None


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=1, sort_keys=True))


def _emit_rows(rows: list[dict], columns: list[str], fmt: str) -> None:
    rows = _round6(rows)  # the one rounding of every reported number, whatever the format
    if fmt == "json":
        _print_json(rows)
    elif fmt == "csv":  # RFC 4180: a field holding a comma, quote or line feed is quoted
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(c, "") for c in columns] for row in rows)
    else:
        widths = {c: max([len(c), *(len(str(r.get(c, ""))) for r in rows)]) for c in columns}
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def _cmd_entropy(args) -> int:
    phfes = parse_phfe_list(_read_json(args.input))
    ids = [m for chunk in args.measure for m in chunk.split(",") if m] or [
        DEFAULT_CONFIG.fuzziness.label, DEFAULT_CONFIG.nonspecificity.label, DEFAULT_CONFIG.label
    ]
    measures = [parse_measure(text) for text in ids]
    rows = []
    for index, a in enumerate(phfes):
        for text, measure in zip(ids, measures):
            # A kernel or config prints its label, exponent included (r1@r=2); a baseline has none.
            row = {"element": repr(a), "index": index, "measure": getattr(measure, "label", text)}
            row.update(_measure_row(measure, a))
            rows.append(row)
    columns = ["index", "element", "measure", "value", "fuzziness", "nonspecificity"]
    if not any("fuzziness" in r for r in rows):
        columns = columns[:4]
    _emit_rows(rows, columns, args.format)
    return 0


def _cmd_distance(args) -> int:
    phfes = parse_phfe_list(_read_json(args.input))
    if len(phfes) < 2:
        raise PhfeError("distance needs at least two elements in the input")
    config = EntropyConfig.from_string(args.config)
    psi = PsiFunction(args.psi)
    rows = []
    for i, a in enumerate(phfes):
        for b in phfes[i + 1:]:
            rows.append(
                {
                    "a": repr(a),
                    "b": repr(b),
                    "distance": entropy_distance(a, b, psi, config),
                    "hybrid_size": len(a) * len(b),
                }
            )
    _emit_rows(rows, ["a", "b", "distance", "hybrid_size"], args.format)
    return 0


def _cmd_topsis(args) -> int:
    matrix = parse_decision_matrix(_read_json(args.input))
    config = EntropyConfig.from_string(args.config)
    psi = PsiFunction(args.psi)
    result = run_topsis(matrix, config, psi)
    if args.format == "json":
        payload = {**result_to_dict(result, matrix), "config": config.label, "psi": psi.label}
        _print_json(_round6(payload))
    elif args.format == "csv":
        columns = ["alternative", "d_plus", "d_minus", "closeness", "rank"]
        numbers = zip(result.d_plus, result.d_minus, result.closeness)
        rank = {alt: k + 1 for k, alt in enumerate(result.ranking)}
        rows = [
            dict(zip(columns, (name, *map(format_number, values), rank[i])))
            for i, (name, values) in enumerate(zip(matrix.alternatives, numbers))
        ]
        _emit_rows(rows, columns, "csv")
    else:
        print(f"config: {config.label}  psi: {psi.label}")
        print(format_result_table(result, matrix))
    return 0


def _cmd_reproduce(args) -> int:
    from .reproduce import render_report, reproduce_all  # on use: other commands skip it

    text, code = render_report(reproduce_all(), strict=args.strict)
    print(text)
    return code


def _cmd_axioms(args) -> int:
    from .verify import run_axiom_suites  # on use: other commands skip it

    results = run_axiom_suites(args.seed, args.samples)
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name} ({r.samples} samples)")
        if r.counterexample:
            print(f"       counterexample: {r.counterexample}")
    print(f"{len(results) - len(failures)}/{len(results)} suites passed "
          f"(seed {args.seed}, {args.samples} samples)")
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phfe",
        description="Entropy, distance, and entropy-weighted TOPSIS for "
        "probabilistic hesitant fuzzy elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by the commands that read an input file, and by the two that take a config.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="JSON elements (topsis: a decision matrix)")
    common.add_argument("--format", choices=("json", "table", "csv"), default="table")
    pipeline = argparse.ArgumentParser(add_help=False, parents=[common])
    pipeline.add_argument("--config", default=DEFAULT_CONFIG.label, help="entropy config id")
    psi_labels = sorted(p.label for p in ALL_PSI)
    pipeline.add_argument("--psi", choices=psi_labels, default=PSI_IDENTITY.label)

    p_entropy = sub.add_parser(
        "entropy", parents=[common], help="evaluate entropy measures on elements"
    )
    p_entropy.add_argument(
        "--measure",
        action="append",
        default=[],
        help="measure id (repeatable or comma-separated): r1, r2, f1..f3, su-p1, su-p2, "
        "su-d, or a comprehensive config like r1:f2:max; r1@r=2 sets the r1 exponent",
    )
    p_entropy.set_defaults(fn=_cmd_entropy)
    for name, fn, text in (
        ("distance", _cmd_distance, "pairwise entropy-based distances"),
        ("topsis", _cmd_topsis, "entropy-weighted TOPSIS over a matrix"),
    ):
        sub.add_parser(name, parents=[pipeline], help=text).set_defaults(fn=fn)

    p_repro = sub.add_parser("reproduce", help="recompute the bundled reference tables")
    p_repro.add_argument(
        "--strict",
        action="store_true",
        help="treat report-only mismatches as failures",
    )
    p_repro.set_defaults(fn=_cmd_reproduce)

    p_axioms = sub.add_parser("axioms", help="randomized axiom verification")
    p_axioms.add_argument("--seed", type=int, default=42)
    p_axioms.add_argument("--samples", type=_positive_int, default=10000)
    p_axioms.set_defaults(fn=_cmd_axioms)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PhfeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
