"""Seeded inputs and op schedules for the four benchmark workloads.

Nothing here imports phfe.  The parent process turns a seed into JSON
inputs and a spec; the worker loads them into library objects during
set-up.  Element lengths, linguistic cells and cost criteria are
stratified (a fixed multiset, shuffled by the seed), so every seed asks
for the same amount of work and runs with different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("topsis-cli", "topsis-sweep", "distance-long", "axioms")

#: Entropy configs and psi generators that distance-long cycles through.
DISTANCE_CONFIGS = ("r1:f1:max", "r2:f3:psum", "r1:f2:bsum@r=2")
PSI_IDS = ("id", "sq", "harm", "exp")

#: Linguistic scale of the generated matrices: terms s_0 .. s_6.
TAU = 3

#: Matrix cells have 1..MAX_CELL_VALUES values.
MAX_CELL_VALUES = 6


@dataclass(frozen=True)
class Shape:
    """Input sizes of every workload; the benchmark runs DEFAULT."""

    rows: int = 100  # alternatives per matrix
    cols: int = 10  # criteria per matrix
    cli_files: int = 4  # matrix files topsis-cli rotates over
    distance_ops: int = 26  # distance-long ops per cycle, one element pair each
    min_long_values: int = 12
    max_long_values: int = 24
    axiom_samples: int = 500  # samples per run_axiom_suites call
    axiom_trace_cycle: int = 2  # axioms ops per cycle in a traced run


DEFAULT = Shape()


class Rng:
    """SplitMix64 stream keyed by (seed, label).

    The benchmark's own generator, so inputs do not change with the
    Python or numpy version.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int, label: str):
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def distinct(self, k: int, n: int) -> list[int]:
        """k distinct integers from range(n), ascending."""
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.below(n))
        return sorted(chosen)

    def partition(self, total: int, parts: int) -> list[int]:
        """total split into `parts` positive integers."""
        cuts = [0] + [c + 1 for c in self.distinct(parts - 1, total - 1)] + [total]
        return [b - a for a, b in zip(cuts, cuts[1:])]


def pair_element(rng: Rng, length: int, grid: int, prob_steps: int) -> list[list[float]]:
    """Raw [value, probability] pairs: distinct values on a 1/grid grid,
    probabilities in steps of 1/prob_steps summing to one."""
    values = [k / grid for k in rng.distinct(length, grid + 1)]
    probs = [c / prob_steps for c in rng.partition(prob_steps, length)]
    return [[v, p] for v, p in zip(values, probs)]


def linguistic_element(rng: Rng, length: int) -> dict:
    terms = rng.distinct(length, 2 * TAU + 1)
    probs = [c / 10 for c in rng.partition(10, length)]
    return {"terms": [{"t": t, "p": p} for t, p in zip(terms, probs)]}


def decision_matrix(rng: Rng, shape: Shape) -> dict:
    """A rows x cols matrix in the CLI's JSON form.

    Cells have 1..MAX_CELL_VALUES values in equal numbers; a fifth of
    them are linguistic on the matrix-level scale, whose few short cells
    repeat the way they do in real input.  About 30% of the criteria are
    cost criteria.
    """
    n_cells = shape.rows * shape.cols
    lengths = [1 + k % MAX_CELL_VALUES for k in range(n_cells)]
    rng.shuffle(lengths)
    linguistic = [k < n_cells // 5 for k in range(n_cells)]
    rng.shuffle(linguistic)
    n_cost = round(0.3 * shape.cols)
    kinds = ["cost" if j < n_cost else "benefit" for j in range(shape.cols)]
    rng.shuffle(kinds)
    cells = []
    for i in range(shape.rows):
        row = []
        for j in range(shape.cols):
            k = i * shape.cols + j
            if linguistic[k]:
                row.append(linguistic_element(rng, lengths[k]))
            else:
                pairs = pair_element(rng, lengths[k], grid=100, prob_steps=20)
                row.append({"pairs": [{"v": v, "p": p} for v, p in pairs]})
        cells.append(row)
    return {
        "criteria": [{"name": f"c{j + 1}", "kind": kinds[j]} for j in range(shape.cols)],
        "alternatives": [f"x{i + 1}" for i in range(shape.rows)],
        "cells": cells,
        "tau": TAU,
    }


def distance_schedule(rng: Rng, shape: Shape) -> tuple[list, list]:
    """Element pool and one cycle of (a, b, psi, config) ops.

    Op k pairs a fresh element of length L[k % n] with one of length
    L[(5k + 7) % n], L = min..max long values, so every cycle has the same
    size mix whatever the seed; psi and config rotate independently.
    """
    lengths = list(range(shape.min_long_values, shape.max_long_values + 1))
    n = len(lengths)
    pool, schedule = [], []
    for k in range(shape.distance_ops):
        for length in (lengths[k % n], lengths[(5 * k + 7) % n]):
            pool.append(pair_element(rng, length, grid=1000, prob_steps=1000))
        schedule.append(
            [2 * k, 2 * k + 1, PSI_IDS[k % len(PSI_IDS)], DISTANCE_CONFIGS[k % len(DISTANCE_CONFIGS)]]
        )
    return pool, schedule


def generate(workload: str, seed: int, work_dir: Path, shape: Shape = DEFAULT) -> dict:
    """Write the workload's inputs under work_dir and return its spec."""
    spec: dict = {"workload": workload}
    if workload == "topsis-cli":
        spec["files"] = []
        for f in range(shape.cli_files):
            path = work_dir / f"matrix{f}.json"
            path.write_text(json.dumps(decision_matrix(Rng(seed, f"cli{f}"), shape)))
            spec["files"].append(str(path))
    elif workload == "topsis-sweep":
        path = work_dir / "matrix.json"
        path.write_text(json.dumps(decision_matrix(Rng(seed, "sweep"), shape)))
        spec["matrix"] = str(path)
    elif workload == "distance-long":
        spec["pool"], spec["schedule"] = distance_schedule(Rng(seed, "distance"), shape)
    elif workload == "axioms":
        spec["base_seed"] = Rng(seed, "axioms").below(1 << 40)
        spec["samples"] = shape.axiom_samples
        spec["trace_cycle"] = shape.axiom_trace_cycle
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec
