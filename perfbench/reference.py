"""Straight-loop transcription of the paper's formulas, for output checks.

Imports nothing from phfe: the benchmark checks the engine against this
after the timed region.  Sums run in the order the engine documents
(hybrid entries sorted by value, then weight, then source indices; TOPSIS
sums row-major), so results agree far inside the 1e-12 tolerance and the
CLI's six-digit JSON can be compared byte for byte.
"""

from __future__ import annotations

import json
import math

#: The pairwise probability functional takes its equality branch within this.
PI_EQ_TOL = 1e-12

#: Agreement required between engine and reference.
TOL = 1e-12


def canonical(raw) -> tuple[list[float], list[float]]:
    """(values, probs) of an element: zero probabilities dropped, equal
    values merged, ascending by value."""
    merged: dict[float, float] = {}
    for v, p in raw:
        v, p = float(v), float(p)
        if p != 0.0:
            merged[v] = merged.get(v, 0.0) + p
    values = sorted(merged)
    return values, [min(merged[v], 1.0) for v in values]


def cell(obj: dict, default_tau) -> tuple[list[float], list[float]]:
    """An element from its JSON form; linguistic term t maps to t / (2 tau)."""
    if "pairs" in obj:
        return canonical((x["v"], x["p"]) for x in obj["pairs"])
    top = 2 * int(obj.get("tau", default_tau))
    return canonical((int(x["t"]) / top, x["p"]) for x in obj["terms"])


def pi(p: float, q: float) -> float:
    d = abs(p - q)
    return (p + q) / 2.0 if d <= PI_EQ_TOL else d


def r1(r: float):
    def kernel(x, y):
        prod = x * y
        a = 1.0 - (abs(1.0 - 4.0 * prod) / 3.0) ** r
        b = 1.0 - (abs(4.0 * (x + y - prod) - 3.0) / 3.0) ** r
        return a * b

    return kernel


def r2(x, y):
    prod = x * y
    s = x + y - prod
    a = (2.0 / 3.0) * (min(1.0 - 2.0 * prod, prod) + 1.0)
    b = (2.0 / 3.0) * (min(2.0 * s - 1.0, 2.0 - 2.0 * s) + 1.0)
    return a * b


def f1(x, y):
    d = abs(x - y)
    return 2.0 * d / (1.0 + d)


def f2(x, y):
    return math.log(1.0 + abs(x - y)) / math.log(2.0)


def f3(x, y):
    d = abs(x - y)
    return d * math.exp(d - 1.0)


def theta_psum(x, y):
    # 1 absorbs exactly, as the spec requires.
    return 1.0 if x == 1.0 or y == 1.0 else x + y - x * y


NONSPEC = {"f1": f1, "f2": f2, "f3": f3}
THETA = {"max": max, "psum": theta_psum, "bsum": lambda x, y: min(x + y, 1.0)}
PSI = {
    "id": lambda z: z,
    "sq": lambda z: z * z,
    "harm": lambda z: 2.0 * z / (1.0 + z),
    "exp": lambda z: z * math.exp(z - 1.0),
}


def config(label: str):
    """(fuzziness kernel, non-specificity kernel, combiner) of an id like
    ``r1:f2:bsum@r=2``."""
    body, _, r_text = label.partition("@r=")
    fuzz, ns, theta = body.split(":")
    r = float(r_text) if r_text else 1.0
    return (r1(r) if fuzz == "r1" else r2), NONSPEC[ns], THETA[theta]


def fuzziness(values, weights, kernel) -> float:
    l = len(values)
    total = 0.0
    for i in range(l):
        for j in range(i, l):
            total += kernel(values[i], values[j]) * pi(weights[i], weights[j])
    return 2.0 * total / (l * (l + 1))


def nonspecificity(values, weights, kernel) -> float:
    l = len(values)
    total = 0.0
    for i in range(l):
        for j in range(i, l):
            base = kernel(values[i], values[j])
            if base > 0.0:
                total += base ** pi(weights[i], weights[j])
    return 2.0 * total / max(2, l * (l - 1))


def entropy(values, weights, cfg) -> float:
    fuzz, ns, theta = cfg
    return theta(fuzziness(values, weights, fuzz), nonspecificity(values, weights, ns))


def distance(a, b, psi, cfg) -> float:
    """Entropy-based distance of elements a, b given as (values, probs)."""
    entries = []
    for i, (va, pa) in enumerate(zip(*a)):
        for j, (vb, pb) in enumerate(zip(*b)):
            entries.append(((1.0 - abs(va - vb)) / 2.0, pi(pa, pb), min(i, j), max(i, j)))
    entries.sort()
    e = entropy([x[0] for x in entries], [x[1] for x in entries], cfg)
    lo, hi = psi(0.0), psi(1.0)
    return 1.0 - (psi(e) - lo) / (hi - lo)


FULL = ([1.0], [1.0])
EMPTY = ([0.0], [1.0])


def topsis(matrix: dict, config_label: str, psi_id: str = "id") -> dict:
    """Entropy-weighted TOPSIS over a matrix in its JSON form."""
    cfg, psi = config(config_label), PSI[psi_id]
    cells = [[cell(c, matrix.get("tau")) for c in row] for row in matrix["cells"]]
    kinds = [c.get("kind", "benefit") for c in matrix["criteria"]]
    m, n = len(cells), len(kinds)
    raw = [1.0 - sum(entropy(*cells[i][j], cfg) for i in range(m)) / m for j in range(n)]
    denom = sum(raw)
    weights = [w / denom for w in raw]
    d_plus, d_minus = [], []
    for i in range(m):
        plus = minus = 0.0
        for j in range(n):
            pos, neg = (FULL, EMPTY) if kinds[j] == "benefit" else (EMPTY, FULL)
            plus += weights[j] * distance(cells[i][j], pos, psi, cfg)
            minus += weights[j] * distance(cells[i][j], neg, psi, cfg)
        d_plus.append(plus)
        d_minus.append(minus)
    close = [dm / (dp + dm) for dp, dm in zip(d_plus, d_minus)]
    return {
        "raw": raw,
        "normalized": weights,
        "d_plus": d_plus,
        "d_minus": d_minus,
        "closeness": close,
        "ranking": sorted(range(m), key=lambda i: (-close[i], i)),
    }


def _round6(obj):
    if isinstance(obj, float):
        return float(format(obj, ".6g"))
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round6(v) for v in obj]
    return obj


def topsis_cli_stdout(matrix: dict, config_label: str = "r1:f1:max", psi_id: str = "id") -> str:
    """What ``phfe topsis --format json`` prints for the matrix: six
    significant digits, sorted keys, one-space indent."""
    res = topsis(matrix, config_label, psi_id)
    names = [str(a) for a in matrix["alternatives"]]
    payload = {
        "weights": {"raw": res["raw"], "normalized": res["normalized"]},
        "d_plus": res["d_plus"],
        "d_minus": res["d_minus"],
        "closeness": res["closeness"],
        "ranking": [names[i] for i in res["ranking"]],
        "config": config_label,
        "psi": psi_id,
    }
    return json.dumps(_round6(payload), indent=1, sort_keys=True) + "\n"


def topsis_agrees(got: list, want: dict) -> bool:
    """Engine result [raw, normalized, d_plus, d_minus, closeness, ranking]
    against the reference: every number within TOL, and the ranking a
    permutation that orders the reference closeness descending."""
    raw, normalized, d_plus, d_minus, close, ranking = got
    for mine, ref in (
        (raw, want["raw"]),
        (normalized, want["normalized"]),
        (d_plus, want["d_plus"]),
        (d_minus, want["d_minus"]),
        (close, want["closeness"]),
    ):
        if len(mine) != len(ref) or any(abs(x - y) > TOL for x, y in zip(mine, ref)):
            return False
    ref_close = want["closeness"]
    if sorted(ranking) != list(range(len(ref_close))):
        return False
    return all(ref_close[i] >= ref_close[j] - TOL for i, j in zip(ranking, ranking[1:]))
