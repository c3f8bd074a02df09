"""Command-line front-end: entropy, distance, topsis, reproduce, axioms.

Exit codes: 0 on success, 1 when a property or gating check fails, 2 for
usage or input errors.  Output is deterministic for identical inputs,
flags, and seeds; every number is printed with six significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .distance import ALL_PSI, entropy_distance
from .elements import PHFE, parse_phfe_list
from .entropy import (
    EntropyConfig,
    Measure,
    fuzziness_entropy,
    measure_value,
    nonspecificity_entropy,
    parse_measure,
)
from .errors import PhfeError, UnknownMeasureError
from .mcdm import (
    format_number,
    format_result_table,
    parse_decision_matrix,
    result_to_dict,
    run_topsis,
)
from .reproduce import render_report, reproduce_all
from .verify import corrupted_complement, run_axiom_suites

_PSI_BY_ID = {p.variant: p for p in ALL_PSI}


def _round6(obj):
    """Recursively shorten floats to six significant digits for reports."""
    if isinstance(obj, float):
        return float(format_number(obj))
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _config(text: str, r: float) -> EntropyConfig:
    """Parse a --config id; an explicit @r= suffix beats the --r flag."""
    config = parse_measure(text, r)
    if not isinstance(config, EntropyConfig):
        raise UnknownMeasureError(f"bad entropy config {text!r}")
    return config


def _measure_row(measure: Measure, a: PHFE) -> dict:
    """One measure row: the value plus, for a config, its two components."""
    if not isinstance(measure, EntropyConfig):
        return {"value": measure_value(measure, a)}
    fuzz = fuzziness_entropy(a, measure.fuzziness)
    ns = nonspecificity_entropy(a, measure.nonspecificity)
    return {"value": measure.theta.combine(fuzz, ns), "fuzziness": fuzz, "nonspecificity": ns}


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_rows(rows: list[dict], columns: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_round6(rows), indent=1, sort_keys=True))
        return
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in columns))
        return
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def _cmd_entropy(args) -> int:
    phfes = parse_phfe_list(_read_json(args.input))
    ids = [m for chunk in args.measure for m in chunk.split(",") if m]
    if not ids:
        ids = ["r1", "f1", "r1:f1:max"]
    measures = [(text, parse_measure(text, args.r)) for text in ids]
    rows = []
    for index, a in enumerate(phfes):
        for text, measure in measures:
            row = {"element": repr(a), "index": index, "measure": text}
            row.update(_round6(_measure_row(measure, a)))
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
    config = _config(args.config, args.r)
    psi = _PSI_BY_ID[args.psi]
    rows = []
    for i, a in enumerate(phfes):
        for b in phfes[i + 1:]:
            rows.append(
                {
                    "a": repr(a),
                    "b": repr(b),
                    "distance": _round6(entropy_distance(a, b, psi, config)),
                    "hybrid_size": len(a) * len(b),
                }
            )
    _emit_rows(rows, ["a", "b", "distance", "hybrid_size"], args.format)
    return 0


def _cmd_topsis(args) -> int:
    matrix = parse_decision_matrix(_read_json(args.input))
    config = _config(args.config, args.r)
    psi = _PSI_BY_ID[args.psi]
    result = run_topsis(matrix, config, psi)
    if args.format == "json":
        payload = result_to_dict(result, matrix)
        payload["config"] = config.label
        payload["psi"] = psi.label
        print(json.dumps(_round6(payload), indent=1, sort_keys=True))
    elif args.format == "csv":
        print("alternative,d_plus,d_minus,closeness,rank")
        position = {alt: k + 1 for k, alt in enumerate(result.ranking)}
        for i, name in enumerate(matrix.alternatives):
            print(
                f"{name},{format_number(result.d_plus[i])},"
                f"{format_number(result.d_minus[i])},"
                f"{format_number(result.closeness[i])},{position[i]}"
            )
    else:
        print(f"config: {config.label}  psi: {psi.label}")
        print(format_result_table(result, matrix))
    return 0


def _cmd_reproduce(args) -> int:
    text, code = render_report(reproduce_all(), strict=args.strict)
    print(text)
    return code


def _cmd_axioms(args) -> int:
    complement_fn = corrupted_complement if args.mutate == "complement" else None
    kwargs = {} if complement_fn is None else {"complement_fn": complement_fn}
    results = run_axiom_suites(args.seed, args.samples, **kwargs)
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

    p_entropy = sub.add_parser("entropy", help="evaluate entropy measures on elements")
    p_entropy.add_argument("--input", required=True, help="JSON file with elements")
    p_entropy.add_argument(
        "--measure",
        action="append",
        default=[],
        help="measure id (repeatable or comma-separated): r1, r2, f1..f3, "
        "su-p1, su-p2, su-d, or a comprehensive config like r1:f2:max@r=1",
    )
    p_entropy.add_argument("--r", type=float, default=1.0, help="exponent for the r1 kernel")
    p_entropy.add_argument("--format", choices=("json", "table", "csv"), default="table")
    p_entropy.set_defaults(fn=_cmd_entropy)

    p_distance = sub.add_parser("distance", help="pairwise entropy-based distances")
    p_distance.add_argument("--input", required=True, help="JSON file with elements")
    p_distance.add_argument("--config", default="r1:f1:max", help="entropy config id")
    p_distance.add_argument("--r", type=float, default=1.0, help="exponent for the r1 kernel")
    p_distance.add_argument("--psi", choices=sorted(_PSI_BY_ID), default="id")
    p_distance.add_argument("--format", choices=("json", "table", "csv"), default="table")
    p_distance.set_defaults(fn=_cmd_distance)

    p_topsis = sub.add_parser("topsis", help="entropy-weighted TOPSIS over a matrix")
    p_topsis.add_argument("--input", required=True, help="JSON decision matrix")
    p_topsis.add_argument("--config", default="r1:f1:max", help="entropy config id")
    p_topsis.add_argument("--r", type=float, default=1.0, help="exponent for the r1 kernel")
    p_topsis.add_argument("--psi", choices=sorted(_PSI_BY_ID), default="id")
    p_topsis.add_argument("--format", choices=("json", "table", "csv"), default="table")
    p_topsis.set_defaults(fn=_cmd_topsis)

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
    p_axioms.add_argument(
        "--mutate",
        choices=("complement",),
        help="corrupt an operation to sanity-check the harness",
    )
    p_axioms.set_defaults(fn=_cmd_axioms)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PhfeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
