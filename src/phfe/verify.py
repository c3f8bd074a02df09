"""Randomized verification of the entropy and distance axioms.

Every documented invariant runs as a seeded randomized suite over
generated elements.  Membership values are drawn on a dyadic grid
(multiples of 2**-20) so that the complement map round-trips exactly in
binary floating point; probabilities come from random simplexes.

The suites are pure functions from a seed to a report: a fixed seed
always reproduces the same verdicts and counterexamples.  Draws come from
the standard library's ``random.Random`` with a string seed, through
``random()`` and ``getrandbits`` only.  Suites that
share inputs are evaluated in one pass over a common corpus, with the
base entropies of each element computed once.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from . import baselines
from .distance import ALL_PSI, EMPTY_ELEMENT, FULL_ELEMENT, entropy_distance, hybrid
from .elements import PHFE, _ltr_sum, canonicalize, complement, pi
from .entropy import (
    F1,
    F2,
    F3,
    R1,
    R2,
    EntropyConfig,
    FuzzinessKernel,
    NonSpecificityKernel,
    comprehensive_entropy,
    entropy_components,
    fuzziness_entropy,
    nonspecificity_entropy,
    r_kernel,
    weighted_comprehensive,
    _FUZZINESS,
    _NONSPECIFICITY,
    _THETA,
)
from .errors import DegenerateWeightsError
from .mcdm import CriterionSpec, DecisionMatrix, run_topsis

#: Grid resolution for membership values; 1 - k/2**20 is exact for all k.
_GRID = 1 << 20

_EXACT_TOL = 1e-12


class SuiteResult:
    """One suite's verdict: the draws it checked, not those skipped as
    premise-void, and its first counterexample, if any."""

    def __init__(self, name: str, samples: int = 0, counterexample: str | None = None) -> None:
        self.name, self.samples, self.counterexample = name, samples, counterexample

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def fail(self, message: str) -> None:
        """Record a counterexample; only the first one is kept."""
        if self.counterexample is None:
            self.counterexample = message


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


_R1_F1 = EntropyConfig(R1, F1)
_R2_F2 = EntropyConfig(R2, F2)


def _bases(a: PHFE) -> dict[str, float]:
    """Base entropies of one element, each computed exactly once, in three passes."""
    r1, f1 = entropy_components(a, _R1_F1)
    r2, f2 = entropy_components(a, _R2_F2)
    return {"r1": r1, "r2": r2, "f1": f1, "f2": f2, "f3": nonspecificity_entropy(a, F3)}


# ---------------------------------------------------------------------------
# Pass over the shared element corpus: canonical-form, complement, range,
# symmetry, and combiner suites all consume the same elements.
# ---------------------------------------------------------------------------


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


def _corpus_pass(
    rng: random.Random,
    samples: int,
    complement_fn: Callable[[PHFE], PHFE],
) -> list[SuiteResult]:
    roundtrip = SuiteResult("canonical form roundtrip", samples)
    involution = SuiteResult("complement involution", samples)
    ranges = SuiteResult("entropy range", samples)
    symmetry = SuiteResult("complement symmetry", samples)
    ordering = SuiteResult("combiner ordering", samples)

    edges = _edge_elements()
    for index in range(samples):
        a = edges[index] if index < len(edges) else random_phfe(rng)

        if canonicalize(a) != a:
            roundtrip.fail(f"canonicalize not idempotent on {a!r}")
        perm = list(a)
        rng.shuffle(perm)
        if canonicalize(perm) != a:
            roundtrip.fail(f"canonicalize depends on input order for {a!r}")

        c = complement_fn(a)
        if sorted(c.probs) != sorted(a.probs) or len(c) != len(a):
            involution.fail(f"complement changed the probability multiset of {a!r}")
        elif complement_fn(c) != a:
            involution.fail(f"complement not involutive on {a!r}")

        base_a = _bases(a)
        base_c = _bases(c)

        for key, value in base_a.items():
            if not 0.0 <= value <= 1.0:
                ranges.fail(f"{key} entropy of {a!r} = {value!r}")
        for fuzz in _FUZZINESS:
            for ns in _NONSPECIFICITY:
                combined = [theta(base_a[fuzz], base_a[ns]) for theta in _THETA.values()]
                for theta, e in zip(_THETA, combined):
                    if not 0.0 <= e <= 1.0:
                        ranges.fail(f"comprehensive[{fuzz}:{ns}:{theta}]({a!r}) = {e!r}")
                e_max, e_psum, e_bsum = combined
                if not e_max <= e_psum <= e_bsum:
                    ordering.fail(
                        f"combiner ordering broken on {a!r} [{fuzz}:{ns}]: "
                        f"{e_max!r}, {e_psum!r}, {e_bsum!r}"
                    )

        # The r2 kernel as published is not reflection symmetric, so the
        # exactness suite covers the r1 family, all non-specificity
        # kernels, their combinations, and the baselines (see the
        # documented-deviations section of the report).
        for key in ("r1", *_NONSPECIFICITY):
            if abs(base_a[key] - base_c[key]) > _EXACT_TOL:
                symmetry.fail(
                    f"{key} entropy: {a!r} -> {base_a[key]!r} vs complement {base_c[key]!r}"
                )
        for ns in _NONSPECIFICITY:
            for theta, combine in _THETA.items():
                x = combine(base_a["r1"], base_a[ns])
                y = combine(base_c["r1"], base_c[ns])
                if abs(x - y) > _EXACT_TOL:
                    symmetry.fail(f"comprehensive[r1:{ns}:{theta}]: {x!r} vs {y!r} on {a!r}")
        for fn in (baselines.su_entropy_p1, baselines.su_entropy_p2, baselines.su_entropy_d):
            x, y = fn(a), fn(c)
            if abs(x - y) > _EXACT_TOL:
                symmetry.fail(f"{fn.__name__}: {a!r} -> {x!r} vs complement {y!r}")

    return [roundtrip, involution, ranges, symmetry, ordering]


# ---------------------------------------------------------------------------
# Pass over random element pairs: distance suites.
# ---------------------------------------------------------------------------


def _distance_pass(rng: random.Random, samples: int) -> list[SuiteResult]:
    symmetry = SuiteResult("distance symmetry and range", samples)
    endpoints = SuiteResult("psi endpoint agreement", samples)

    for _ in range(samples):
        a, b = random_phfe(rng), random_phfe(rng)
        psi = rng.choice(ALL_PSI)
        # d_ab is entropy_distance by its definition; ec also feeds the psi check.
        ec = weighted_comprehensive(*hybrid(a, b))
        d_ab = 1.0 - psi(ec)
        d_ba = entropy_distance(b, a, psi)
        if d_ab != d_ba:
            symmetry.fail(f"distance asymmetric on {a!r}, {b!r}: {d_ab!r} vs {d_ba!r}")
        if not 0.0 <= d_ab <= 1.0:
            symmetry.fail(f"distance out of range on {a!r}, {b!r}: {d_ab!r}")

        flags = {1.0 - p(ec) == 0.0 for p in ALL_PSI}
        if len(flags) != 1:
            endpoints.fail(f"psi variants disagree on zero distance for {a!r}, {b!r}")

    return [symmetry, endpoints]


# ---------------------------------------------------------------------------
# Constructed-pair monotonicity suites.
# ---------------------------------------------------------------------------


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


def _monotonicity(rng: random.Random, samples: int, kernels, measure, draw) -> SuiteResult:
    """``measure(a, k) <= measure(b, k)`` for every kernel and each drawn pair ``(a, b)``."""
    name = measure.__name__.removesuffix("_entropy")
    col = SuiteResult(f"{name} monotonicity")
    for _ in range(samples):
        pair = draw(rng)
        if pair is None:
            continue  # premise void
        col.samples += 1
        a, b = pair
        for kernel in kernels:
            ea, eb = measure(a, kernel), measure(b, kernel)
            if ea > eb + _EXACT_TOL:
                col.fail(
                    f"{name}[{kernel.label}] not monotone: {a!r} -> {ea!r} "
                    f"exceeds {b!r} -> {eb!r}"
                )
    return col


# ---------------------------------------------------------------------------
# Small scalar suites.
# ---------------------------------------------------------------------------


def _pi_suite(rng: random.Random, samples: int) -> SuiteResult:
    col = SuiteResult("pi symmetry and range", samples)
    for _ in range(samples):
        a = rng.uniform(1e-9, 1.0)
        b = rng.uniform(1e-9, 1.0)
        left, right = pi(a, b), pi(b, a)
        if left != right:
            col.fail(f"pi({a!r}, {b!r}) != pi({b!r}, {a!r})")
        elif not 0.0 < left <= 1.0:
            col.fail(f"pi({a!r}, {b!r}) = {left!r} outside (0, 1]")
    return col


def _theta_suite(rng: random.Random, samples: int) -> SuiteResult:
    col = SuiteResult("theta contract", samples)
    for _ in range(samples):
        x = rng.uniform(0.0, 1.0)
        y = rng.uniform(0.0, 1.0)
        z = rng.uniform(y, 1.0)
        for theta, combine in _THETA.items():
            for edge in (0.0, 1.0):
                if combine(edge, 0.0) != edge:
                    col.fail(f"theta[{theta}]({edge}, 0) != {edge}")
            if combine(x, y) != combine(y, x):
                col.fail(f"theta[{theta}] not commutative at ({x!r}, {y!r})")
            if combine(x, y) > combine(x, z) + _EXACT_TOL:
                col.fail(f"theta[{theta}] not monotone at ({x!r}, {y!r} -> {z!r})")
    return col


def _singleton_suite(rng: random.Random, samples: int) -> SuiteResult:
    col = SuiteResult("singleton self-distance", samples)
    for _ in range(samples):
        g = rng.randrange(0, _GRID + 1) / _GRID
        s = canonicalize([(g, 1.0)])
        for psi in ALL_PSI:
            d = entropy_distance(s, s, psi)
            if d != 0.0:
                col.fail(f"distance({s!r}, {s!r}) = {d!r} with psi={psi.label}")
    return col


def _weights_suite(rng: random.Random, samples: int) -> SuiteResult:
    col = SuiteResult("weights and closeness", samples)
    for _ in range(samples):
        m = rng.randrange(2, 5)
        n = rng.randrange(1, 5)
        cells = tuple(
            tuple(random_phfe(rng, max_len=4) for _ in range(n)) for _ in range(m)
        )
        kinds = ["benefit" if rng.random() < 0.7 else "cost" for _ in range(n)]
        matrix = DecisionMatrix(
            tuple(f"x{i + 1}" for i in range(m)),
            tuple(CriterionSpec(f"c{j + 1}", kinds[j]) for j in range(n)),
            cells,
        )
        try:
            result = run_topsis(matrix)
        except DegenerateWeightsError:
            # The refusal is correct only when every cell has entropy one;
            # either way the draw counts as checked.
            if any(comprehensive_entropy(c) != 1.0 for row in cells for c in row):
                col.fail(f"weights refused although some cell has entropy below 1: {cells!r}")
            continue
        w = result.weights
        if any(x < 0.0 for x in w.normalized):
            col.fail(f"negative weight in {w.normalized!r}")
        elif abs((total := _ltr_sum(w.normalized)) - 1.0) > 1e-9:
            col.fail(f"weights sum to {total!r}")
        if any(not 0.0 <= c <= 1.0 for c in result.closeness):
            col.fail(f"closeness out of range: {result.closeness!r}")
        ordered = [result.closeness[i] for i in result.ranking]
        if any(x < y for x, y in zip(ordered, ordered[1:])):
            col.fail(f"ranking not sorted by closeness: {result.ranking!r}")
    return col


# ---------------------------------------------------------------------------
# Fixed-point checks.
# ---------------------------------------------------------------------------


def _boundary_suite() -> SuiteResult:
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
    col = SuiteResult("boundary exactness", 1)
    for label, got, want in checks:
        if got != want:
            col.fail(f"{label} = {got!r}")
    # The split element must sit strictly between the crisp extremes in
    # fuzziness; its exact value is the 0-1 kernel value over six.
    split_fuzz = fuzziness_entropy(split)
    expected = r_kernel(R1, 0.0, 1.0) / 6.0
    if not (0.0 < split_fuzz < 1.0) or abs(split_fuzz - expected) > _EXACT_TOL:
        col.fail(f"fuzziness({split!r}) = {split_fuzz!r}")
    return col


def corrupted_complement(a: PHFE) -> PHFE:
    """Deliberately wrong complement used by the mutation-test mode."""
    shifted = [(min(1.0, 1.0 - v * 0.9), p) for v, p in a]
    values = sorted(v for v, _ in shifted)
    if len(set(values)) != len(values):
        shifted = [(v * 0.5 + i * 1e-3, p) for i, (v, p) in enumerate(shifted)]
    return canonicalize(shifted)


def run_axiom_suites(
    seed: int,
    samples: int,
    complement_fn: Callable[[PHFE], PHFE] = complement,
) -> list[SuiteResult]:
    """Run every suite; pass ``k`` draws from ``random.Random(f"{seed}:{k}")``.

    Each result counts the draws its suite checked, fewer than ``samples``
    where a draw voids the suite's premise.  ``complement_fn`` exists for
    mutation testing: passing a corrupted complement must make the
    involution and symmetry suites fail.
    """
    rng = [random.Random(f"{seed}:{k}") for k in range(8)]
    results: list[SuiteResult] = []
    results.extend(_corpus_pass(rng[0], samples, complement_fn))
    fuzziness = [FuzzinessKernel(v) for v in _FUZZINESS]
    nonspecificity = [NonSpecificityKernel(v) for v in _NONSPECIFICITY]
    results.append(_monotonicity(rng[1], samples, fuzziness, fuzziness_entropy, _shrunk_pair))
    results.append(
        _monotonicity(rng[2], samples, nonspecificity, nonspecificity_entropy, _contracted_pair)
    )
    results.extend(_distance_pass(rng[3], samples))
    results.append(_pi_suite(rng[4], samples))
    results.append(_theta_suite(rng[5], samples))
    results.append(_singleton_suite(rng[6], samples))
    results.append(_weights_suite(rng[7], max(1, samples // 20)))
    results.append(_boundary_suite())

    # The hybrid of a multi-valued element with itself holds off-diagonal
    # entries below 1/2, so its comprehensive entropy stays below one and the
    # self-distance does not vanish: a property of the published construction,
    # shown on a fixed witness.
    documented = SuiteResult("multi-valued self-distance stays positive (documented)", 1)
    witness = canonicalize([(0.3, 0.5), (0.7, 0.5)])
    if not (self_distance := entropy_distance(witness, witness)) > 0.0:
        documented.fail(f"distance({witness!r}, itself) = {self_distance!r}")
    results.append(documented)
    return results
