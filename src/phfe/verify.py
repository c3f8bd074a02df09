"""Randomized verification of the entropy and distance axioms.

Every documented invariant runs as a seeded randomized suite over
generated elements.  Membership values are drawn on a dyadic grid
(multiples of 2**-20) so that the complement map round-trips exactly in
binary floating point; probabilities come from random simplexes.

The suites are pure functions from a seed to a report: a fixed seed
always reproduces the same verdicts and counterexamples.  Suites that
share inputs are evaluated in one pass over a common corpus, with the
base entropies of each element computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines
from .distance import ALL_PSI, entropy_distance, hybrid
from .elements import PHFE, canonicalize, complement, pi
from .entropy import (
    F1,
    F2,
    F3,
    R1,
    R2,
    THETA_BSUM,
    THETA_MAX,
    THETA_PSUM,
    comprehensive_entropy,
    fuzziness_entropy,
    nonspecificity_entropy,
    r_kernel,
    weighted_comprehensive,
)
from .errors import DegenerateWeightsError
from .mcdm import CriterionSpec, DecisionMatrix, entropy_weights, run_topsis

#: Grid resolution for membership values; 1 - k/2**20 is exact for all k.
_GRID = 1 << 20

_NS_KERNELS = (F1, F2, F3)
_THETAS = (THETA_MAX, THETA_PSUM, THETA_BSUM)

_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    passed: bool
    counterexample: str | None = None


class _Collector:
    """Per-suite verdict: remembers the first counterexample only."""

    def __init__(self, name: str, samples: int):
        self.name = name
        self.samples = samples
        self.first: str | None = None

    def fail(self, message: str) -> None:
        if self.first is None:
            self.first = message

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.samples, self.first is None, self.first)


def _distinct_ticks(rng: np.random.Generator, length: int, low: int, high: int) -> list[int]:
    ticks: set[int] = set()
    while len(ticks) < length:
        ticks.add(int(rng.integers(low, high)))
    return sorted(ticks)


def random_phfe(rng: np.random.Generator, max_len: int = 6) -> PHFE:
    """Random canonical element: 1..max_len grid values, simplex probabilities.

    A small share of draws pins the extreme values 0 and 1 into the
    element; those corners reach non-specificity 1 exactly and stress
    the combiner and distance edge cases.
    """
    length = int(rng.integers(1, max_len + 1))
    if length >= 2 and rng.random() < 0.05:
        ticks = [0, _GRID] + _distinct_ticks(rng, length - 2, 1, _GRID)
    else:
        ticks = _distinct_ticks(rng, length, 0, _GRID + 1)
    values = [t / _GRID for t in sorted(ticks)]
    probs = rng.dirichlet(np.ones(length))
    # Tiny parts would be dropped as zero-probability; nudge them up.
    probs = (probs + 1e-6) / (1.0 + length * 1e-6)
    return canonicalize(list(zip(values, probs.tolist())))


def _bases(a: PHFE) -> dict[str, float]:
    """Base entropies of one element, each computed exactly once."""
    return {
        "r1": fuzziness_entropy(a, R1),
        "r2": fuzziness_entropy(a, R2),
        "f1": nonspecificity_entropy(a, F1),
        "f2": nonspecificity_entropy(a, F2),
        "f3": nonspecificity_entropy(a, F3),
    }


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
    rng: np.random.Generator,
    samples: int,
    complement_fn: Callable[[PHFE], PHFE],
) -> list[SuiteResult]:
    roundtrip = _Collector("canonical form roundtrip", samples)
    involution = _Collector("complement involution", samples)
    ranges = _Collector("entropy range", samples)
    symmetry = _Collector("complement symmetry", samples)
    ordering = _Collector("combiner ordering", samples)

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
        for fuzz in ("r1", "r2"):
            for ns in ("f1", "f2", "f3"):
                x, y = base_a[fuzz], base_a[ns]
                for theta in _THETAS:
                    e = theta.combine(x, y)
                    if not 0.0 <= e <= 1.0:
                        ranges.fail(f"comprehensive[{fuzz}:{ns}:{theta.label}]({a!r}) = {e!r}")
                e_max, e_psum, e_bsum = (t.combine(x, y) for t in _THETAS)
                if not e_max <= e_psum <= e_bsum:
                    ordering.fail(
                        f"combiner ordering broken on {a!r} [{fuzz}:{ns}]: "
                        f"{e_max!r}, {e_psum!r}, {e_bsum!r}"
                    )

        # The r2 kernel as published is not reflection symmetric, so the
        # exactness suite covers the r1 family, all non-specificity
        # kernels, their combinations, and the baselines (see the
        # documented-deviations section of the report).
        for key in ("r1", "f1", "f2", "f3"):
            if abs(base_a[key] - base_c[key]) > _EXACT_TOL:
                symmetry.fail(
                    f"{key} entropy: {a!r} -> {base_a[key]!r} vs complement {base_c[key]!r}"
                )
        for ns in ("f1", "f2", "f3"):
            for theta in _THETAS:
                x = theta.combine(base_a["r1"], base_a[ns])
                y = theta.combine(base_c["r1"], base_c[ns])
                if abs(x - y) > _EXACT_TOL:
                    symmetry.fail(f"comprehensive[r1:{ns}:{theta.label}]: {x!r} vs {y!r} on {a!r}")
        for fn in (baselines.su_entropy_p1, baselines.su_entropy_p2, baselines.su_entropy_d):
            x, y = fn(a), fn(c)
            if abs(x - y) > _EXACT_TOL:
                symmetry.fail(f"{fn.__name__}: {a!r} -> {x!r} vs complement {y!r}")

    return [r.result() for r in (roundtrip, involution, ranges, symmetry, ordering)]


# ---------------------------------------------------------------------------
# Pass over random element pairs: distance suites.
# ---------------------------------------------------------------------------


def _distance_pass(rng: np.random.Generator, samples: int) -> list[SuiteResult]:
    symmetry = _Collector("distance symmetry and range", samples)
    endpoints = _Collector("psi endpoint agreement", samples)

    for _ in range(samples):
        a, b = random_phfe(rng), random_phfe(rng)
        psi = ALL_PSI[int(rng.integers(0, len(ALL_PSI)))]
        d_ab = entropy_distance(a, b, psi)
        d_ba = entropy_distance(b, a, psi)
        if d_ab != d_ba:
            symmetry.fail(f"distance asymmetric on {a!r}, {b!r}: {d_ab!r} vs {d_ba!r}")
        if not 0.0 <= d_ab <= 1.0:
            symmetry.fail(f"distance out of range on {a!r}, {b!r}: {d_ab!r}")

        h = hybrid(a, b)
        ec = weighted_comprehensive(h.values, h.weights)
        flags = {1.0 - (p(ec) - p(0.0)) / (p(1.0) - p(0.0)) == 0.0 for p in ALL_PSI}
        if len(flags) != 1:
            endpoints.fail(f"psi variants disagree on zero distance for {a!r}, {b!r}")

    return [symmetry.result(), endpoints.result()]


# ---------------------------------------------------------------------------
# Constructed-pair monotonicity suites.
# ---------------------------------------------------------------------------


def _fuzziness_monotonicity(rng: np.random.Generator, samples: int) -> SuiteResult:
    col = _Collector("fuzziness monotonicity", samples)
    for _ in range(samples):
        # Upper element B sits in [0, 1/2]; A shrinks B's values by a
        # shared factor and keeps the same probabilities, so every
        # pairwise probability term coincides and the value premise
        # holds elementwise.
        b = _random_lower_half_phfe(rng)
        factor = float(rng.uniform(0.0, 1.0))
        a = canonicalize([(v * factor, p) for v, p in b])
        if len(a) != len(b):
            continue  # shrink collided values; premise void
        for kernel in (R1, R2):
            ea, eb = fuzziness_entropy(a, kernel), fuzziness_entropy(b, kernel)
            if ea > eb + _EXACT_TOL:
                col.fail(
                    f"fuzziness[{kernel.label}] not monotone: {a!r} -> {ea!r} "
                    f"exceeds {b!r} -> {eb!r}"
                )
    return col.result()


def _random_lower_half_phfe(rng) -> PHFE:
    length = int(rng.integers(1, 7))
    values = [t / _GRID for t in _distinct_ticks(rng, length, 1, _GRID // 2 + 1)]
    probs = rng.dirichlet(np.ones(length))
    probs = (probs + 1e-6) / (1.0 + length * 1e-6)
    return canonicalize(list(zip(values, probs.tolist())))


def _nonspecificity_monotonicity(rng: np.random.Generator, samples: int) -> SuiteResult:
    col = _Collector("nonspecificity monotonicity", samples)
    for _ in range(samples):
        # A contracts B's values toward a centre, so every pairwise gap
        # shrinks while the probabilities (hence all pi terms) stay equal.
        b = random_phfe(rng)
        if len(b) == 1:
            continue
        centre = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        a_values = [centre + t * (v - centre) for v in b.values]
        if len(set(a_values)) != len(a_values):
            continue
        a = canonicalize(zip(a_values, b.probs))
        for kernel in _NS_KERNELS:
            ea, eb = nonspecificity_entropy(a, kernel), nonspecificity_entropy(b, kernel)
            if ea > eb + _EXACT_TOL:
                col.fail(
                    f"nonspecificity[{kernel.label}] not monotone: {a!r} -> {ea!r} "
                    f"exceeds {b!r} -> {eb!r}"
                )
    return col.result()


# ---------------------------------------------------------------------------
# Small scalar suites.
# ---------------------------------------------------------------------------


def _pi_suite(rng: np.random.Generator, samples: int) -> SuiteResult:
    col = _Collector("pi symmetry and range", samples)
    for _ in range(samples):
        a = float(rng.uniform(1e-9, 1.0))
        b = float(rng.uniform(1e-9, 1.0))
        left, right = pi(a, b), pi(b, a)
        if left != right:
            col.fail(f"pi({a!r}, {b!r}) != pi({b!r}, {a!r})")
        elif not 0.0 < left <= 1.0:
            col.fail(f"pi({a!r}, {b!r}) = {left!r} outside (0, 1]")
    return col.result()


def _theta_suite(rng: np.random.Generator, samples: int) -> SuiteResult:
    col = _Collector("theta contract", samples)
    for _ in range(samples):
        x = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(0.0, 1.0))
        z = float(rng.uniform(y, 1.0))
        for theta in _THETAS:
            for edge in (0.0, 1.0):
                if theta.combine(edge, 0.0) != edge:
                    col.fail(f"theta[{theta.label}]({edge}, 0) != {edge}")
            if theta.combine(x, y) != theta.combine(y, x):
                col.fail(f"theta[{theta.label}] not commutative at ({x!r}, {y!r})")
            if theta.combine(x, y) > theta.combine(x, z) + _EXACT_TOL:
                col.fail(f"theta[{theta.label}] not monotone at ({x!r}, {y!r} -> {z!r})")
    return col.result()


def _singleton_suite(rng: np.random.Generator, samples: int) -> SuiteResult:
    col = _Collector("singleton self-distance", samples)
    for _ in range(samples):
        g = float(rng.integers(0, _GRID + 1)) / _GRID
        s = canonicalize([(g, 1.0)])
        for psi in ALL_PSI:
            d = entropy_distance(s, s, psi)
            if d != 0.0:
                col.fail(f"distance({s!r}, {s!r}) = {d!r} with psi={psi.label}")
    return col.result()


def _weights_suite(rng: np.random.Generator, samples: int) -> SuiteResult:
    col = _Collector("weights and closeness", samples)
    for _ in range(samples):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
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
            w = entropy_weights(matrix)
        except DegenerateWeightsError:
            # The refusal is correct only when every cell has entropy one.
            if any(comprehensive_entropy(c) != 1.0 for row in cells for c in row):
                col.fail(f"weights refused although some cell has entropy below 1: {cells!r}")
            continue
        if any(x < 0.0 for x in w.normalized):
            col.fail(f"negative weight in {w.normalized!r}")
        elif abs(sum(w.normalized) - 1.0) > 1e-9:
            col.fail(f"weights sum to {sum(w.normalized)!r}")
        result = run_topsis(matrix)
        if any(not 0.0 <= c <= 1.0 for c in result.closeness):
            col.fail(f"closeness out of range: {result.closeness!r}")
        ordered = [result.closeness[i] for i in result.ranking]
        if any(x < y for x, y in zip(ordered, ordered[1:])):
            col.fail(f"ranking not sorted by closeness: {result.ranking!r}")
    return col.result()


# ---------------------------------------------------------------------------
# Fixed-point checks.
# ---------------------------------------------------------------------------


def _boundary_suite() -> SuiteResult:
    """Exact values the measures must hit at the distinguished elements."""
    crisp_low = canonicalize([(0.0, 1.0)])
    crisp_high = canonicalize([(1.0, 1.0)])
    half = canonicalize([(0.5, 1.0)])
    split = canonicalize([(0.0, 0.5), (1.0, 0.5)])
    checks = [
        ("fuzziness({0|1})", fuzziness_entropy(crisp_low), 0.0),
        ("fuzziness({1|1})", fuzziness_entropy(crisp_high), 0.0),
        ("fuzziness({0.5|1})", fuzziness_entropy(half), 1.0),
        ("nonspecificity singleton", nonspecificity_entropy(half), 0.0),
        ("nonspecificity({0|.5,1|.5})", nonspecificity_entropy(split), 1.0),
    ]
    for label, got, want in checks:
        if got != want:
            return SuiteResult("boundary exactness", 1, False, f"{label} = {got!r}")
    # The split element must sit strictly between the crisp extremes in
    # fuzziness; its exact value is the 0-1 kernel value over six.
    split_fuzz = fuzziness_entropy(split)
    expected = r_kernel(R1, 0.0, 1.0) / 6.0
    if not (0.0 < split_fuzz < 1.0) or abs(split_fuzz - expected) > _EXACT_TOL:
        return SuiteResult(
            "boundary exactness", 1, False, f"fuzziness({split!r}) = {split_fuzz!r}"
        )
    return SuiteResult("boundary exactness", 1, True)


def demonstrate_reflexivity_failure() -> tuple[PHFE, float]:
    """A multi-valued element whose self-distance is positive.

    The hybrid of an element with itself contains off-diagonal entries
    below 1/2, so its comprehensive entropy stays below one and the
    distance does not vanish.  This is a property of the published
    construction, demonstrated here on a fixed witness.
    """
    a = canonicalize([(0.3, 0.5), (0.7, 0.5)])
    return a, entropy_distance(a, a)


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
    """Run every suite with deterministic per-pass seeding.

    ``complement_fn`` exists for mutation testing: passing a corrupted
    complement must make the involution and symmetry suites fail.
    """
    results: list[SuiteResult] = []
    results.extend(_corpus_pass(np.random.default_rng([seed, 0]), samples, complement_fn))
    results.append(_fuzziness_monotonicity(np.random.default_rng([seed, 1]), samples))
    results.append(_nonspecificity_monotonicity(np.random.default_rng([seed, 2]), samples))
    results.extend(_distance_pass(np.random.default_rng([seed, 3]), samples))
    results.append(_pi_suite(np.random.default_rng([seed, 4]), samples))
    results.append(_theta_suite(np.random.default_rng([seed, 5]), samples))
    results.append(_singleton_suite(np.random.default_rng([seed, 6]), samples))
    results.append(_weights_suite(np.random.default_rng([seed, 7]), max(1, samples // 20)))
    results.append(_boundary_suite())

    witness, self_distance = demonstrate_reflexivity_failure()
    results.append(
        SuiteResult(
            "multi-valued self-distance stays positive (documented)",
            1,
            self_distance > 0.0,
            None
            if self_distance > 0.0
            else f"distance({witness!r}, itself) = {self_distance!r}",
        )
    )
    return results
