"""Randomized verification of the entropy and distance axioms.

Each check is a named, pure predicate such as ``complement_involution`` or
``pi_symmetry``: it takes drawn elements, plus values already computed for
them, and returns ``None`` or a counterexample message.  The seeded suites
of :func:`run_axiom_suites` and the hypothesis tests call the same
predicates, so each axiom is stated once.

Membership values are drawn on a dyadic grid (multiples of 2**-20) so that
the complement map round-trips exactly in binary floating point;
probabilities come from random simplexes.  A fixed seed always reproduces
the same verdicts and counterexamples.  Draws come from the standard
library's ``random.Random`` with a string seed, through ``random()`` and
``getrandbits`` only.  Suites that share inputs are checked in one pass
over a common corpus, where each element's record (see :func:`base_entropies`)
holds its 23 entropies under the library's own measure ids, each computed once.
A check that the library refuses with a ``PhfeError``, or that fails with an
``ArithmeticError`` (a wrong engine's entropy far outside [0, 1] can overflow
``math.exp``), is a counterexample of every suite of its pass, not an error of
the run.
"""

from __future__ import annotations

import random
from operator import itemgetter

from . import baselines
from .distance import ALL_PSI, EMPTY_ELEMENT, FULL_ELEMENT, PsiFunction, entropy_distance, hybrid
from .elements import PI_EQ_TOL, PHFE, _ltr_sum, canonicalize, complement, pi
from .entropy import (
    F1,
    F2,
    F3,
    R1,
    R2,
    EntropyConfig,
    all_configs,
    comprehensive_entropy,
    entropy_components,
    fuzziness_entropy,
    nonspecificity_entropy,
    weighted_comprehensive,
    _THETA,
)
from .errors import DegenerateWeightsError, PhfeError
from .mcdm import CriterionSpec, DecisionMatrix, run_topsis

#: Grid resolution for membership values; 1 - k/2**20 is exact for all k.
_GRID = 1 << 20

_EXACT_TOL = 1e-12


class SuiteResult:
    """One suite's verdict: the draws it checked, not those skipped as
    premise-void, and its first counterexample, if any."""

    def __init__(self, name: str) -> None:
        self.name, self.samples, self.counterexample = name, 0, None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


_R1_F1 = EntropyConfig(R1, F1)
_R2_F2 = EntropyConfig(R2, F2)
_CONFIGS = all_configs()
_KERNEL_IDS = [kernel.label for kernel in (R1, R2, F1, F2, F3)]
#: By combiner id: its six configs' labels, and getters of their kernels' values from a record.
_COMBINED = {
    theta: ([c.label for c in six], itemgetter(*[c.fuzziness.label for c in six]),
            itemgetter(*[c.nonspecificity.label for c in six]))
    for theta in _THETA
    for six in [[c for c in _CONFIGS if c.theta.label == theta]]
}
#: Each kernel pair, and a getter of its max, psum and bsum values from a record.
_ORDERED = [(ids[0].rpartition(":")[0], itemgetter(*ids))
            for ids in zip(*[ids for ids, _, _ in _COMBINED.values()])]
#: The ids an element shares with its complement: r1, f1-f3 and the nine r1 configs.
_SYMMETRIC_IDS = [k.label for k in (R1, F1, F2, F3)]
_SYMMETRIC_IDS += [c.label for c in _CONFIGS if c.fuzziness == R1]


def base_entropies(a: PHFE) -> dict[str, float]:
    """Record of one element's measures by id, each computed once: kernels r1 r2 f1 f2 f3 in
    three passes, and the 18 ``all_configs()`` labels ``r1:f1:max`` ... in one call per combiner."""
    r1, f1 = entropy_components(a, _R1_F1)
    r2, f2 = entropy_components(a, _R2_F2)
    base = dict(zip(_KERNEL_IDS, (r1, r2, f1, f2, nonspecificity_entropy(a, F3))))
    for theta, (ids, fuzz, nonspec) in _COMBINED.items():
        base.update(zip(ids, _THETA[theta](fuzz(base), nonspec(base))))
    return base


# ---------------------------------------------------------------------------
# Predicates.  Arguments named ``c`` are complements of ``a``, and ``base``
# records come from base_entropies.
# ---------------------------------------------------------------------------


def canonical_roundtrip(a: PHFE, perm: list) -> str | None:
    """``canonicalize`` is idempotent on ``a`` and ignores the order ``perm`` of its pairs."""
    if canonicalize(a) != a:
        return f"canonicalize not idempotent on {a!r}"
    if canonicalize(perm) != a:
        return f"canonicalize depends on input order for {a!r}"


def complement_involution(a: PHFE, c: PHFE) -> str | None:
    """``c = complement(a)`` keeps the probabilities, inverts itself and mirrors the values."""
    if sorted(c.probs) != sorted(a.probs) or len(c) != len(a):
        return f"complement changed the probability multiset of {a!r}"
    if complement(c) != a:
        return f"complement not involutive on {a!r}"
    if sorted(c) != sorted((1.0 - v, p) for v, p in a):
        return f"complement does not reflect the values of {a!r} about 1/2"


def entropy_range(a: PHFE, base: dict[str, float]) -> str | None:
    """Each measure of the record ``base``, kernel and config alike, is in [0, 1]."""
    for key, value in base.items():
        if not 0.0 <= value <= 1.0:
            return f"{key} entropy of {a!r} = {value!r}"


def combiner_ordering(a: PHFE, base: dict[str, float]) -> str | None:
    """max <= probabilistic sum <= bounded sum for every pair of base entropies."""
    for pair, values in _ORDERED:
        e_max, e_psum, e_bsum = values(base)
        if not e_max <= e_psum <= e_bsum:
            return (
                f"combiner ordering broken on {a!r} [{pair}]: "
                f"{e_max!r}, {e_psum!r}, {e_bsum!r}"
            )


def complement_symmetry(
    a: PHFE, c: PHFE, base_a: dict[str, float], base_c: dict[str, float]
) -> str | None:
    """An element and its complement ``c`` agree within 1e-12 on every measure.

    The r2 kernel as published is not reflection symmetric, so this covers
    the r1 family, all non-specificity kernels, their combinations, and the
    baselines (see the documented-deviations section of the report).
    """
    for key in _SYMMETRIC_IDS:
        if abs(base_a[key] - base_c[key]) > _EXACT_TOL:
            return f"{key} entropy: {a!r} -> {base_a[key]!r} vs complement {base_c[key]!r}"
    for fn in (baselines.su_entropy_p1, baselines.su_entropy_p2, baselines.su_entropy_d):
        if abs((x := fn(a)) - (y := fn(c))) > _EXACT_TOL:
            return f"{fn.__name__}: {a!r} -> {x!r} vs complement {y!r}"


def _monotone(name: str, measure, kernels, a: PHFE, b: PHFE) -> str | None:
    for kernel in kernels:
        ea, eb = measure(a, kernel), measure(b, kernel)
        if ea > eb + _EXACT_TOL:
            return f"{name}[{kernel.label}] not monotone: {a!r} -> {ea!r} exceeds {b!r} -> {eb!r}"


def fuzziness_monotonicity(a: PHFE, b: PHFE) -> str | None:
    """Fuzziness under r1 and r2 grows from ``a`` to ``b``, whose values sit in
    [0, 1/2], each at or above ``a``'s, with the same probabilities."""
    return _monotone("fuzziness", fuzziness_entropy, (R1, R2), a, b)


def nonspecificity_monotonicity(a: PHFE, b: PHFE) -> str | None:
    """Non-specificity under f1, f2 and f3 grows from ``a`` to ``b``, whose pairwise
    value gaps are each at least ``a``'s, with the same probabilities."""
    return _monotone("nonspecificity", nonspecificity_entropy, (F1, F2, F3), a, b)


def distance_symmetry(a: PHFE, b: PHFE, psi: PsiFunction, ec: float) -> str | None:
    """``entropy_distance`` is bit-for-bit symmetric and in [0, 1]; ``ec``: the hybrid's entropy."""
    d_ab = 1.0 - psi(ec)  # by the definition, kept apart from entropy_distance so a fault there shows
    d_ba = entropy_distance(b, a, psi)
    if d_ab != d_ba:
        return f"distance asymmetric on {a!r}, {b!r}: {d_ab!r} vs {d_ba!r}"
    if not 0.0 <= d_ab <= 1.0:
        return f"distance out of range on {a!r}, {b!r}: {d_ab!r}"


def psi_endpoint_agreement(a: PHFE, b: PHFE, ec: float) -> str | None:
    """Every psi variant gives distance zero on the hybrid entropy ``ec``, or none does."""
    if len({1.0 - p(ec) == 0.0 for p in ALL_PSI}) != 1:
        return f"psi variants disagree on zero distance for {a!r}, {b!r}"


def pi_symmetry(p: float, q: float) -> str | None:
    """``pi`` is symmetric bit for bit and lies in (0, 1]."""
    if (left := pi(p, q)) != pi(q, p):
        return f"pi({p!r}, {q!r}) != pi({q!r}, {p!r})"
    if not 0.0 < left <= 1.0:
        return f"pi({p!r}, {q!r}) = {left!r} outside (0, 1]"


def theta_contract(x: float, y: float, z: float) -> str | None:
    """Each combiner fixes 0 and 1 against 0, commutes, and is monotone from ``y`` to ``z >= y``."""
    for theta, combine in _THETA.items():
        e0, e1, xy, yx, xz = combine((0.0, 1.0, x, y, x), (0.0, 0.0, y, x, z))
        for edge, e in ((0.0, e0), (1.0, e1)):
            if e != edge:
                return f"theta[{theta}]({edge}, 0) != {edge}"
        if xy != yx:
            return f"theta[{theta}] not commutative at ({x!r}, {y!r})"
        if xy > xz + _EXACT_TOL:
            return f"theta[{theta}] not monotone at ({x!r}, {y!r} -> {z!r})"


def singleton_self_distance(s: PHFE) -> str | None:
    """A singleton is at distance exactly zero from itself under every psi."""
    for psi in ALL_PSI:
        if (d := entropy_distance(s, s, psi)) != 0.0:
            return f"distance({s!r}, {s!r}) = {d!r} with psi={psi.label}"


def weights_and_closeness(matrix: DecisionMatrix) -> str | None:
    """Weights are non-negative and sum to one, closeness lies in [0, 1], and the
    ranking sorts it; the weights may be refused only if every cell has entropy one.
    Then ``run_topsis``'s batched pass agrees bit for bit with the scalar engine (on the grid,
    1 - v rounds no two values together): each raw weight is one minus the column's mean
    ``comprehensive_entropy``, each d+ and d- the weighted ``entropy_distance`` to the ideals."""
    try:
        result = run_topsis(matrix)
    except DegenerateWeightsError:
        if any(comprehensive_entropy(c) != 1.0 for row in matrix.cells for c in row):
            return f"weights refused although some cell has entropy below 1: {matrix.cells!r}"
        return None
    w = result.weights.normalized
    if any(x < 0.0 for x in w):
        return f"negative weight in {w!r}"
    if abs((total := _ltr_sum(w)) - 1.0) > 1e-9:
        return f"weights sum to {total!r}"
    if any(not 0.0 <= c <= 1.0 for c in result.closeness):
        return f"closeness out of range: {result.closeness!r}"
    ordered = [result.closeness[i] for i in result.ranking]
    if any(x < y for x, y in zip(ordered, ordered[1:])):
        return f"ranking not sorted by closeness: {result.ranking!r}"
    m, _ = matrix.shape
    for j, (c, raw) in enumerate(zip(matrix.criteria, result.weights.raw)):
        want = 1.0 - _ltr_sum(comprehensive_entropy(row[j]) for row in matrix.cells) / m
        if raw != want:
            return f"raw weight of {c.name!r} is {raw!r}, the scalar engine gives {want!r}"
    ideals = [
        (FULL_ELEMENT, EMPTY_ELEMENT) if c.kind == "benefit" else (EMPTY_ELEMENT, FULL_ELEMENT)
        for c in matrix.criteria
    ]
    for k, (sign, ds) in enumerate((("+", result.d_plus), ("-", result.d_minus))):
        for name, row, got in zip(matrix.alternatives, matrix.cells, ds):
            want = _ltr_sum(w * entropy_distance(cell, ideal[k])
                            for w, cell, ideal in zip(result.weights.normalized, row, ideals))
            if got != want:
                return f"d{sign} of {name!r} is {got!r}, the scalar engine gives {want!r}"


def boundary_exactness() -> str | None:
    """Exact values the measures must hit at the distinguished elements."""
    half = canonicalize([(0.5, 1.0)])
    split = canonicalize([(0.0, 0.5), (1.0, 0.5)])
    checks = [
        ("fuzziness({0|1})", fuzziness_entropy(EMPTY_ELEMENT), 0.0),
        ("fuzziness({1|1})", fuzziness_entropy(FULL_ELEMENT), 0.0),
        ("fuzziness({0.5|1})", fuzziness_entropy(half), 1.0),
        ("nonspecificity singleton", nonspecificity_entropy(half), 0.0),
        ("nonspecificity({0|.5,1|.5})", nonspecificity_entropy(split), 1.0),
    ]
    for label, got, want in checks:
        if got != want:
            return f"{label} = {got!r}"
    # The split element must sit strictly between the crisp extremes in
    # fuzziness; its exact value is r1(0, 1) = (2/3)**2 over six: 2/27.
    split_fuzz = fuzziness_entropy(split)
    if not 0.0 < split_fuzz < 1.0 or abs(split_fuzz - 2.0 / 27.0) > _EXACT_TOL:
        return f"fuzziness({split!r}) = {split_fuzz!r}"


def multi_valued_self_distance(a: PHFE) -> str | None:
    """A multi-valued element stays at a positive distance from itself.

    Its hybrid with itself holds off-diagonal entries below 1/2, so the
    comprehensive entropy stays below one: a property of the published
    construction, documented rather than patched.
    """
    if not (d := entropy_distance(a, a)) > 0.0:
        return f"distance({a!r}, itself) = {d!r}"


# ---------------------------------------------------------------------------
# Seeded draws.  A draw for one predicate returns its arguments, or None
# where it voids the premise; passes over shared inputs return whole rows.
# ---------------------------------------------------------------------------


def _distinct_ticks(rng: random.Random, length: int, low: int, high: int) -> list[int]:
    ticks: set[int] = set()
    while len(ticks) < length:
        ticks.add(rng.randrange(low, high))
    return sorted(ticks)


def _random_simplex_element(rng: random.Random, values: list[float]) -> PHFE:
    """Element on ``values``; normalised unit exponentials are uniform on the simplex."""
    draws = [rng.expovariate(1.0) for _ in values]
    total = _ltr_sum(draws)
    # Tiny parts would be dropped as zero-probability; nudge them up.
    probs = [(d / total + 1e-6) / (1.0 + len(values) * 1e-6) for d in draws]
    return canonicalize(list(zip(values, probs)))


def random_phfe(rng: random.Random, max_len: int = 6) -> PHFE:
    """Random canonical element: 1..max_len grid values, simplex probabilities.

    A small share of draws pins the extreme values 0 and 1 into the
    element; those corners reach non-specificity 1 exactly and stress
    the combiner and distance edge cases.
    """
    length = rng.randrange(1, max_len + 1)
    if length >= 2 and rng.random() < 0.05:
        ticks = [0, _GRID] + _distinct_ticks(rng, length - 2, 1, _GRID)
    else:
        ticks = _distinct_ticks(rng, length, 0, _GRID + 1)
    return _random_simplex_element(rng, [t / _GRID for t in sorted(ticks)])


#: Hand-picked elements sitting on the boundary of the entropy ranges;
#: the corpus pass always checks these before the random stream.
def _edge_elements() -> list[PHFE]:
    return [
        canonicalize([(0.0, 1.0)]),
        canonicalize([(1.0, 1.0)]),
        canonicalize([(0.5, 1.0)]),
        # Values stay on the dyadic grid so complement round-trips exactly.
        canonicalize([(0.125, 1.0)]),
        canonicalize([(0.0, 0.5), (1.0, 0.5)]),
        canonicalize([(0.0, 0.25), (1.0, 0.75)]),
        canonicalize([(0.0, 0.003), (1.0, 0.997)]),
        canonicalize([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]),
    ]


def _shrunk_pair(rng: random.Random) -> tuple[PHFE, PHFE] | None:
    # Upper element B sits in [0, 1/2]; A shrinks B's values by a shared
    # factor and keeps the same probabilities, so every pairwise
    # probability term coincides and the value premise holds elementwise.
    ticks = _distinct_ticks(rng, rng.randrange(1, 7), 1, _GRID // 2 + 1)
    b = _random_simplex_element(rng, [t / _GRID for t in ticks])
    factor = rng.uniform(0.0, 1.0)
    a = canonicalize([(v * factor, p) for v, p in b])
    return (a, b) if len(a) == len(b) else None  # None: shrink collided values


def _contracted_pair(rng: random.Random) -> tuple[PHFE, PHFE] | None:
    # A contracts B's values toward a centre, so every pairwise gap
    # shrinks while the probabilities (hence all pi terms) stay equal.
    b = random_phfe(rng)
    if len(b) == 1:
        return None
    centre = rng.uniform(0.0, 1.0)
    t = rng.uniform(0.0, 1.0)
    a_values = [centre + t * (v - centre) for v in b.values]
    if len(set(a_values)) != len(a_values):
        return None
    return canonicalize(zip(a_values, b.probs)), b


def _probabilities(rng: random.Random) -> tuple[float, float]:
    # Independent draws never come within PI_EQ_TOL, so one draw in five tests pi's equality
    # branch: q is p, or p moved by less than PI_EQ_TOL / 2.
    p, q, u = rng.uniform(1e-9, 1.0), rng.uniform(1e-9, 1.0), rng.random()
    if u < 0.1:
        return p, p
    if u < 0.2:
        return p, min(1.0, p + (q - 0.5) * PI_EQ_TOL)
    return p, q


def _theta_triple(rng: random.Random) -> tuple[float, float, float]:
    x, y = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    return x, y, rng.uniform(y, 1.0)


def _singleton(rng: random.Random) -> tuple[PHFE]:
    return (canonicalize([(rng.randrange(0, _GRID + 1) / _GRID, 1.0)]),)


def _matrix(rng: random.Random) -> tuple[DecisionMatrix]:
    m = rng.randrange(2, 5)
    n = rng.randrange(1, 5)
    cells = tuple(tuple(random_phfe(rng, max_len=4) for _ in range(n)) for _ in range(m))
    kinds = ["benefit" if rng.random() < 0.7 else "cost" for _ in range(n)]
    criteria = tuple(CriterionSpec(f"c{j + 1}", kind) for j, kind in enumerate(kinds))
    return (DecisionMatrix(tuple(f"x{i + 1}" for i in range(m)), criteria, cells),)


def _with_perm(a: PHFE, rng: random.Random) -> tuple[PHFE, list]:
    """``a`` and its pairs in a shuffled list."""
    rng.shuffle(perm := list(a))
    return a, perm


def _corpus_row(a: PHFE, perm: list) -> tuple:
    """Messages of the five corpus suites, sharing ``a``'s complement and both records."""
    c = complement(a)
    base_a, base_c = base_entropies(a), base_entropies(c)
    return (canonical_roundtrip(a, perm), complement_involution(a, c), entropy_range(a, base_a),
            complement_symmetry(a, c, base_a, base_c), combiner_ordering(a, base_a))


def _distance_row(a: PHFE, b: PHFE, psi: PsiFunction) -> tuple:
    """Messages of the two distance suites, sharing the hybrid's entropy, computed once."""
    ec = weighted_comprehensive(*hybrid(a, b))
    return distance_symmetry(a, b, psi, ec), psi_endpoint_agreement(a, b, ec)


def run_axiom_suites(seed: int, samples: int) -> list[SuiteResult]:
    """Run every pass ``(suite names, check, draw, count)``; pass ``k`` draws ``count`` times
    from ``random.Random(f"{seed}:{k}")``.  A draw gives ``check``'s arguments, or None where
    it voids the premise, uncounted; ``check`` gives a tuple of one message per suite, or one
    message for every suite.  A check the library refuses with a ``PhfeError``, or that fails
    with an ``ArithmeticError``, gives every suite of its pass the counterexample
    ``refused: <the error> on <the arguments>``.

    The predicates call these operations by their ``phfe.verify`` names, so a test can patch
    one with a wrong version and check that the suites catch it: ``canonicalize``,
    ``complement``, ``pi``, ``hybrid``, ``entropy_distance``, ``fuzziness_entropy``,
    ``nonspecificity_entropy``, ``comprehensive_entropy``, ``run_topsis``, ``ALL_PSI`` and
    ``_THETA``.
    """
    corpus = ("canonical form roundtrip", "complement involution", "entropy range",
              "complement symmetry", "combiner ordering")
    edges = iter(_edge_elements())  # the corpus checks these before its random elements
    passes = [
        (corpus, _corpus_row,
         lambda rng: _with_perm(next(edges, None) or random_phfe(rng), rng), samples),
        (("fuzziness monotonicity",), fuzziness_monotonicity, _shrunk_pair, samples),
        (("nonspecificity monotonicity",), nonspecificity_monotonicity, _contracted_pair, samples),
        (("distance symmetry and range", "psi endpoint agreement"), _distance_row,
         lambda rng: (random_phfe(rng), random_phfe(rng), rng.choice(ALL_PSI)), samples),
        (("pi symmetry and range",), pi_symmetry, _probabilities, samples),
        (("theta contract",), theta_contract, _theta_triple, samples),
        (("singleton self-distance",), singleton_self_distance, _singleton, samples),
        (("weights and closeness",), weights_and_closeness, _matrix, max(1, samples // 20)),
        (("boundary exactness",), boundary_exactness, lambda rng: (), 1),
        (("multi-valued self-distance stays positive (documented)",), multi_valued_self_distance,
         lambda rng: (canonicalize([(0.3, 0.5), (0.7, 0.5)]),), 1),
    ]
    results: list[SuiteResult] = []
    for k, (names, check, draw, count) in enumerate(passes):
        rng, suites = random.Random(f"{seed}:{k}"), [SuiteResult(name) for name in names]
        for args in (draw(rng) for _ in range(count)):
            if args is None:
                continue
            try:
                row = check(*args)
            except (PhfeError, ArithmeticError) as error:
                row = f"refused: {error!r} on {args!r}"
            for suite, message in zip(suites, row if type(row) is tuple else [row] * len(names)):
                suite.samples += 1
                if suite.counterexample is None:
                    suite.counterexample = message
        results += suites
    return results
