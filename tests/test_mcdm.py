import builtins
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phfe.distance
import phfe.entropy
import phfe.mcdm
from phfe import (
    ALL_PSI,
    F2,
    PSI_SQUARE,
    R1,
    THETA_PSUM,
    CriterionSpec,
    DecisionMatrix,
    DegenerateWeightsError,
    EMPTY_ELEMENT,
    EntropyConfig,
    FULL_ELEMENT,
    OutOfRangeError,
    ParseError,
    ProbabilitySumError,
    PsiFunction,
    ThetaCombiner,
    WeightVector,
    ZeroDenominatorError,
    all_configs,
    canonicalize,
    closeness,
    comprehensive_entropy,
    entropy_distance,
    entropy_weights,
    format_result_table,
    ideal_distances,
    matrix_to_dict,
    parse_decision_matrix,
    result_to_dict,
    run_topsis,
)
from phfe.mcdm import _ranking
from phfe.reproduce import load_table
from phfe.verify import random_phfe
from support import KERNEL_PAIRS, _compensated_sum, cell_sums, configs_at


FULL_ELEMENT_JSON = {"pairs": [{"v": 1.0, "p": 1}]}


def _case_study_matrix():
    return parse_decision_matrix(load_table(9)["matrix"])


@pytest.fixture(scope="module")
def case_study():
    return _case_study_matrix()


def _singleton_matrix(values, kinds=None):
    m = len(values)
    n = len(values[0])
    kinds = kinds or ["benefit"] * n
    return DecisionMatrix(
        tuple(f"x{i + 1}" for i in range(m)),
        tuple(CriterionSpec(f"c{j + 1}", kinds[j]) for j in range(n)),
        tuple(tuple(canonicalize([(v, 1.0)]) for v in row) for row in values),
    )


class TestDecisionMatrix:
    def test_case_study_shape(self, case_study):
        assert case_study.shape == (3, 4)
        assert case_study.cells[0][0].values == (0.5, pytest.approx(2 / 3))

    def test_duplicate_criterion_names_rejected(self):
        with pytest.raises(ParseError):
            DecisionMatrix(
                ("x1", "x2"),
                (CriterionSpec("c"), CriterionSpec("c")),
                ((FULL_ELEMENT, FULL_ELEMENT), (EMPTY_ELEMENT, EMPTY_ELEMENT)),
            )

    def test_ragged_grid_rejected(self):
        with pytest.raises(ParseError):
            DecisionMatrix(
                ("x1", "x2"),
                (CriterionSpec("c1"),),
                ((FULL_ELEMENT,), (FULL_ELEMENT, FULL_ELEMENT)),
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(ParseError):
            CriterionSpec("c1", "neutral")

    @pytest.mark.parametrize(
        "cell, error, message",
        [
            ({"pairs": [{"v": 0.5, "p": "x"}]}, ParseError,
             'cells[2][1].pairs[0].p: must be a number, got "x"'),
            ({"pairs": [{"v": 1.5, "p": 1}]}, OutOfRangeError,
             "cells[2][1]: membership value 1.5 outside [0, 1]"),
            ({"terms": [{"t": 1, "p": 0.5}]}, ProbabilitySumError,
             "cells[2][1]: probabilities sum to 0.5, expected 1"),
            ({"terms": [{"t": 1, "p": 1}], "tau": 2.5}, ParseError,
             "cells[2][1].tau: must be an integer, got 2.5"),
            ({"pairs": [{"v": k / 100, "p": 1 / 41} for k in range(41)]}, ParseError,
             'cells[2][1]: "pairs" has 41 items, more than 40'),
        ],
    )
    def test_a_refused_cell_is_named(self, cell, error, message):
        # Only the cell at row 2, column 1 is bad; the refusal keeps its type.
        good = {"pairs": [{"v": 0.5, "p": 1}]}
        document = {
            "criteria": [{"name": "c1"}, {"name": "c2"}],
            "alternatives": ["x1", "x2", "x3", "x4"],
            "cells": [[good, good], [good, good], [good, cell], [good, good]],
            "tau": 3,
        }
        with pytest.raises(error) as caught:
            parse_decision_matrix(document)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize("bad", [None, (2, 1)], ids=["good", "refused-2-1"])
    def test_each_cell_is_parsed_once(self, monkeypatch, bad):
        # One pass names the refused cell: parse_phfe meets each cell up to it once, and no cell
        # is parsed again on the error path.
        calls = []

        def counting(cell, default_tau=None):
            calls.append(cell["pairs"][0]["v"])
            return parse(cell, default_tau)

        parse = phfe.mcdm.parse_phfe
        monkeypatch.setattr(phfe.mcdm, "parse_phfe", counting)
        cells = [[{"pairs": [{"v": (2 * i + j) / 10, "p": 1}]} for j in range(2)] for i in range(4)]
        if bad:
            cells[2][1]["pairs"][0]["p"] = "x"
        document = {
            "criteria": [{"name": "c1"}, {"name": "c2"}],
            "alternatives": ["x1", "x2", "x3", "x4"],
            "cells": cells,
        }
        if bad is None:
            assert parse_decision_matrix(document).shape == (4, 2)
            assert calls == [k / 10 for k in range(8)]
        else:
            with pytest.raises(ParseError, match=r"^cells\[2\]\[1\]\.pairs\[0\]\.p: "):
                parse_decision_matrix(document)
            assert calls == [k / 10 for k in range(6)]

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"cells": [[{"pairs": [{"v": 0.5, "p": 1}]}], "ab"]},
             "decision matrix cells must be a list of rows, each a list of elements"),
            ({"cells": "ab"},
             "decision matrix cells must be a list of rows, each a list of elements"),
            ({"cells": (({"pairs": [{"v": 0.5, "p": 1}]},), ({"pairs": [{"v": 0.5, "p": 1}]},))},
             "decision matrix cells must be a list of rows, each a list of elements"),
            ({"cells": [({"pairs": [{"v": 0.5, "p": 1}]},), [{"pairs": [{"v": 0.5, "p": 1}]}]]},
             "decision matrix cells must be a list of rows, each a list of elements"),
        ],
        ids=["string-row", "string-rows", "tuple-of-rows", "tuple-row"],
    )
    def test_a_row_is_a_list(self, patch, message):
        # A JSON array is a list: a string is not read letter by letter as a row.
        document = {"criteria": [{"name": "c1"}], "alternatives": ["x1", "x2"]} | patch
        with pytest.raises(ParseError) as caught:
            parse_decision_matrix(document)
        assert type(caught.value) is ParseError and str(caught.value) == message

    @pytest.mark.parametrize("criteria", [{"c1": 1}, "ab", 3], ids=["object", "string", "number"])
    def test_the_criteria_are_a_list(self, criteria):
        document = {"criteria": criteria, "alternatives": ["x1"], "cells": [[FULL_ELEMENT_JSON]]}
        with pytest.raises(ParseError) as caught:
            parse_decision_matrix(document)
        assert type(caught.value) is ParseError
        assert str(caught.value) == '"criteria" must be a list'

    @pytest.mark.parametrize("document", ["ab", ["ab"], ("a",)], ids=["string", "list", "tuple"])
    def test_a_matrix_is_a_dict(self, document):
        with pytest.raises(ParseError) as caught:
            parse_decision_matrix(document)
        assert str(caught.value) == "decision matrix must be a JSON object"

    def test_json_roundtrip(self, case_study):
        again = parse_decision_matrix(matrix_to_dict(case_study) | {"tau": 3})
        assert again == case_study


class TestEntropyWeights:
    def test_identical_columns_give_uniform_weights(self):
        cell = canonicalize([(0.3, 0.5), (0.8, 0.5)])
        matrix = DecisionMatrix(
            ("x1", "x2"),
            tuple(CriterionSpec(f"c{j}") for j in (1, 2, 3)),
            ((cell, cell, cell), (cell, cell, cell)),
        )
        w = entropy_weights(matrix)
        assert w.normalized == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_single_cell_zero_entropy(self):
        matrix = DecisionMatrix(
            ("x1",), (CriterionSpec("c1"),), ((EMPTY_ELEMENT,),)
        )
        w = entropy_weights(matrix)
        assert w.raw == (1.0,)
        assert w.normalized == (1.0,)

    def test_degenerate_matrix_raises(self):
        half = canonicalize([(0.5, 1.0)])
        matrix = DecisionMatrix(
            ("x1", "x2"),
            (CriterionSpec("c1"), CriterionSpec("c2")),
            ((half, half), (half, half)),
        )
        with pytest.raises(DegenerateWeightsError):
            entropy_weights(matrix)

    def test_normalization_idempotent_under_scaling(self, case_study):
        w = entropy_weights(case_study)
        scale = 7.3
        rescaled = [x * scale for x in w.raw]
        renormalized = [x / sum(rescaled) for x in rescaled]
        assert renormalized == pytest.approx(list(w.normalized), abs=1e-12)

    def test_case_study_argmax_is_c3(self, case_study):
        w = entropy_weights(case_study)
        assert w.argmax == 2
        assert sum(w.normalized) == pytest.approx(1.0, abs=1e-9)


class TestIdealDistances:
    def test_pis_coincidence(self):
        matrix = _singleton_matrix([[1.0, 1.0], [0.0, 0.0]])
        w = entropy_weights(matrix)
        d_plus, d_minus = ideal_distances(matrix, w)
        assert d_plus[0] == 0.0
        assert d_minus[1] == 0.0

    def test_cost_criterion_swaps_contributions(self):
        benefit = _singleton_matrix([[1.0], [0.0]])
        cost = _singleton_matrix([[1.0], [0.0]], kinds=["cost"])
        wb = entropy_weights(benefit)
        dp_b, dm_b = ideal_distances(benefit, wb)
        dp_c, dm_c = ideal_distances(cost, wb)
        assert dp_b == dm_c
        assert dm_b == dp_c

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_weights_must_fit_the_criteria(self, case_study, k):
        # Four criteria: a shorter vector is not summed over its first criteria alone.
        weights = WeightVector((1.0 / k,) * k, (1.0 / k,) * k)
        with pytest.raises(OutOfRangeError) as caught:
            ideal_distances(case_study, weights)
        assert str(caught.value) == f"4 criteria but {k} weights"


class TestCloseness:
    def test_extremes_and_symmetry(self):
        assert closeness(0.0, 0.7) == 1.0
        assert closeness(0.7, 0.0) == 0.0
        assert closeness(0.3, 0.3) == 0.5

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            closeness(0.0, 0.0)

    def test_one_closeness_per_alternative_up_to_the_named_one(self, monkeypatch):
        # bsum saturates at 1 on both ideal hybrids of x3 alone, so d+ = d- = 0 there; the walk
        # over the alternatives stops at x3 and names it.
        calls = []

        def counting(d_plus, d_minus):
            calls.append((d_plus, d_minus))
            return closeness(d_plus, d_minus)

        monkeypatch.setattr(phfe.mcdm, "closeness", counting)
        saturated = canonicalize([(0.41, 0.44), (0.95, 0.56)])
        cells = [(canonicalize([(v, 1.0)]),) for v in (0.03, 0.3, 0.6)]
        cells.insert(2, (saturated,))
        matrix = DecisionMatrix(("x1", "x2", "x3", "x4"), (CriterionSpec("c1", "cost"),), cells)
        config = EntropyConfig.from_string("r1:f1:bsum")
        with pytest.raises(ZeroDenominatorError) as caught:
            run_topsis(matrix, config)
        assert str(caught.value) == "alternative 'x3' has zero distance to both ideals"
        d_plus, d_minus = ideal_distances(matrix, entropy_weights(matrix, config), config=config)
        assert calls == list(zip(d_plus, d_minus))[:3] and calls[2] == (0.0, 0.0)
        calls.clear()
        assert run_topsis(matrix, EntropyConfig.from_string("r1:f1:max")).ranking
        assert len(calls) == 4


class TestRunTopsis:
    def test_dominant_alternative_wins(self):
        matrix = _singleton_matrix([[1.0, 1.0], [0.0, 0.0]])
        result = run_topsis(matrix)
        assert result.ranking == (0, 1)
        assert result.closeness[0] == 1.0
        assert result.closeness[1] == 0.0

    def test_case_study_regression_constants(self, case_study):
        # Full-pipeline values frozen from the first verified run.
        result = run_topsis(case_study)
        assert result.weights.raw == pytest.approx(
            (0.26116832050373706, 0.34600593063270535, 0.3523513657713989, 0.33270378672971557),
            abs=1e-12,
        )
        assert result.weights.normalized == pytest.approx(
            (0.2021067774565121, 0.26775890539150177, 0.2726693610124863, 0.25746495613949977),
            abs=1e-12,
        )
        assert result.d_plus == pytest.approx(
            (0.44563853361579786, 0.5249023758927271, 0.524046565560957), abs=1e-12
        )
        assert result.d_minus == pytest.approx(
            (0.44563853361579786, 0.5249023758927271, 0.542945527884972), abs=1e-12
        )
        assert result.closeness == pytest.approx(
            (0.5, 0.5, 0.5088561866765945), abs=1e-12
        )
        # The first two alternatives tie exactly; original order breaks it.
        assert result.ranking == (2, 0, 1)

    @pytest.mark.parametrize("config", ["r1:f1:max", "r2:f1:max", "r2:f2:max"])
    def test_case_study_max_combiner_ties(self, case_study, config):
        # Every cell of x1 and x2 is as far from one ideal as from the other,
        # so both sit at exactly 1/2 and x1 leads x2 only by input order.
        result = run_topsis(case_study, EntropyConfig.from_string(config))
        assert result.closeness[:2] == (0.5, 0.5)
        assert result.closeness[2] > 0.5
        assert result.ranking == (2, 0, 1)

    def test_case_study_r1_f2_max_puts_only_x1_at_half(self, case_study):
        result = run_topsis(case_study, EntropyConfig.from_string("r1:f2:max"))
        assert result.closeness[0] == 0.5
        assert result.closeness[1] != 0.5

    @pytest.mark.parametrize(
        "config, ties",
        [("r1:f1:max", 231), ("r1:f2:max", 21), ("r1:f3:max", 0),
         ("r2:f1:max", 231), ("r2:f2:max", 231), ("r2:f3:max", 0)],
    )
    def test_no_weighting_puts_x1_strictly_first(self, case_study, config, ties):
        # Every weight vector of the 20-step grid over the 4-criterion simplex: at
        # best x1 ties for first, so the published strict x1 > x3 does not come
        # from the weights.
        steps = 20
        grid = [
            (a / steps, b / steps, c / steps, (steps - a - b - c) / steps)
            for a in range(steps + 1)
            for b in range(steps + 1 - a)
            for c in range(steps + 1 - a - b)
        ]
        assert len(grid) == 1771
        config = EntropyConfig.from_string(config)
        tied = 0
        for w in grid:
            d_plus, d_minus = ideal_distances(case_study, WeightVector(w, w), config=config)
            scores = [closeness(p, q) for p, q in zip(d_plus, d_minus)]
            assert scores[0] <= max(scores[1:]), w
            tied += scores[0] == max(scores)
        assert tied == ties

    def test_tie_break_is_stable(self):
        cell = canonicalize([(0.4, 1.0)])
        matrix = DecisionMatrix(
            ("x1", "x2"),
            (CriterionSpec("c1"),),
            ((cell, ), (cell, )),
        )
        result = run_topsis(matrix)
        assert result.closeness[0] == result.closeness[1]
        assert result.ranking == (0, 1)

    def test_row_major_determinism(self, case_study):
        first = run_topsis(case_study)
        second = run_topsis(case_study)
        assert first == second


class TestRanking:
    """One ranking order: descending, exact ties (0.0 and -0.0 among them) in input order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]), min_size=1, max_size=12))
    def test_descending_with_ties_in_input_order(self, values):
        n = len(values)
        assert _ranking(values) == tuple(sorted(range(n), key=lambda i: (-values[i], i)))
        weights = WeightVector(tuple(values), tuple(values))
        assert weights.argmax == values.index(max(values))  # the first of tied maxima


class TestRendering:
    def test_result_dict_names_ranking(self, case_study):
        result = run_topsis(case_study)
        payload = result_to_dict(result, case_study)
        assert payload["ranking"] == ["x3", "x1", "x2"]
        assert json.dumps(payload)  # serialisable

    def test_table_contains_ranking_line(self, case_study):
        result = run_topsis(case_study)
        text = format_result_table(result, case_study)
        assert "ranking: x3 > x1 > x2" in text
        assert "closeness" in text


def _seeded_matrix(seed=11, m=5, kinds=("benefit", "cost", "benefit", "cost")):
    """m x len(kinds) random cells of 1..4 values, two cost criteria."""
    rng = random.Random(seed)

    def cell():
        values = rng.sample(range(101), rng.randint(1, 4))
        weights = [rng.random() + 0.01 for _ in values]
        return canonicalize([(v / 100, w / sum(weights)) for v, w in zip(values, weights)])

    return DecisionMatrix(
        tuple(f"x{i + 1}" for i in range(m)),
        tuple(CriterionSpec(f"c{j + 1}", kind) for j, kind in enumerate(kinds)),
        tuple(tuple(cell() for _ in kinds) for _ in range(m)),
    )


class TestComponentTable:
    """Weights and distances read per-matrix component sums; these pin the
    cached path, closeness and ranking included, to the entropy and distance
    definitions, bit for bit."""

    @pytest.mark.parametrize("build", [_case_study_matrix, _seeded_matrix], ids=["case", "seeded"])
    def test_matches_definitions_for_every_config_and_psi(self, build):
        matrix = build()
        m, n = matrix.shape
        for config in all_configs():
            weights = entropy_weights(matrix, config)
            # Left to right, like d+ and d- below: the built-in sum compensates from 3.12 on.
            raw = []
            for j in range(n):
                total = 0.0
                for i in range(m):
                    total += comprehensive_entropy(matrix.cells[i][j], config)
                raw.append(1.0 - total / m)
            denom = 0.0
            for w in raw:
                denom += w
            assert weights.raw == tuple(raw)
            assert weights.normalized == tuple(w / denom for w in raw)
            for psi in ALL_PSI:
                expected = ([], [])
                for i in range(m):
                    plus = minus = 0.0
                    for j in range(n):
                        benefit = matrix.criteria[j].kind == "benefit"
                        pos = FULL_ELEMENT if benefit else EMPTY_ELEMENT
                        neg = EMPTY_ELEMENT if benefit else FULL_ELEMENT
                        w = weights.normalized[j]
                        plus += w * entropy_distance(matrix.cells[i][j], pos, psi, config)
                        minus += w * entropy_distance(matrix.cells[i][j], neg, psi, config)
                    expected[0].append(plus)
                    expected[1].append(minus)
                assert ideal_distances(matrix, weights, psi, config) == tuple(map(tuple, expected))
                result = run_topsis(matrix, config, psi)
                assert (result.weights, result.d_plus, result.d_minus) == (weights, *map(tuple, expected))
                scores = [dm / (dp + dm) for dp, dm in zip(*expected)]
                assert result.closeness == tuple(scores)
                assert result.ranking == tuple(sorted(range(m), key=lambda i: (-scores[i], i)))

    @pytest.mark.parametrize("build", [_case_study_matrix, _seeded_matrix], ids=["case", "seeded"])
    def test_matches_definitions_on_a_compensating_sum(self, build, monkeypatch):
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        self.test_matches_definitions_for_every_config_and_psi(build)

    @pytest.mark.parametrize("build", [_case_study_matrix, _seeded_matrix], ids=["case", "seeded"])
    def test_results_do_not_depend_on_what_ran_before(self, build):
        matrix = build()
        configs = all_configs()
        for order in (configs, configs[::-1]):  # cold in order, then warm reversed
            for k, config in enumerate(order):
                psi = ALL_PSI[k % len(ALL_PSI)]
                assert run_topsis(matrix, config, psi) == run_topsis(build(), config, psi)

    def test_one_pass_per_cell_input_and_kernel_pair(self, monkeypatch):
        # One batched pass per matrix and kernel pair sums every cell and both its
        # ideal hybrids, a cell whose values collide under 1 - v included, with one
        # walk per cell length; no cell enters _pairwise.
        passes, walks = [], []
        walk = phfe.mcdm._pairwise_columns

        class CountingFills(dict):
            def __setitem__(self, key, pairs):
                passes.append((tuple(len(c) for pair in pairs for c in pair),) + key)
                super().__setitem__(key, pairs)

        def counting_walks(vs, ws, fuzz, nonspec):
            walks.append(len(vs))
            return walk(vs, ws, fuzz, nonspec)

        def refuse(*args):
            raise AssertionError("_pairwise entered")

        monkeypatch.setattr(phfe.mcdm, "_pairwise_columns", counting_walks)
        monkeypatch.setattr(phfe.entropy, "_pairwise", refuse)
        seeded = _seeded_matrix()
        rows = [list(row) for row in seeded.cells]
        rows[1][2] = canonicalize([(1e-17, 0.3), (2e-17, 0.7)])  # 1 - v is 1.0 for both
        matrix = DecisionMatrix(seeded.alternatives, seeded.criteria, rows)
        matrix.__dict__["_tables"] = CountingFills()
        m, n = matrix.shape
        entropy_weights(matrix)  # weights alone fill all three column pairs of the kernel pair
        assert len(passes) == 1
        for config in all_configs():
            run_topsis(matrix, config)
        assert len(passes) == 6
        assert len(set(passes)) == 6 and {p[0] for p in passes} == {(m * n,) * 6}
        lengths = sorted({len(c) for row in rows for c in row})
        assert sorted(walks) == sorted(lengths * 6)
        for config in all_configs():
            run_topsis(matrix, config)
        assert len(passes) == 6
        run_topsis(matrix, EntropyConfig.from_string("r1:f1:max@r=2"))
        run_topsis(matrix, EntropyConfig.from_string("r1:f1:bsum@r=2"))
        assert len(passes) == 7

    def test_a_warm_run_hashes_no_kernel_or_config(self, monkeypatch):
        # The tables are keyed by the kernels' ids and r: a warm run reads them without hashing
        # a kernel or a config, and an equal config parsed again finds the table its twin filled.
        matrix = _seeded_matrix(seed=5, m=8)
        cold = [run_topsis(matrix, config) for config in all_configs()]

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} hashed")

        monkeypatch.setattr(phfe.entropy._Variant, "__hash__", refuse)
        monkeypatch.setattr(EntropyConfig, "__hash__", refuse)
        assert [run_topsis(matrix, config) for config in all_configs()] == cold
        fresh = _seeded_matrix(seed=5, m=8)
        first, second = (EntropyConfig.from_string("r1:f2:psum@r=2") for _ in range(2))
        assert first is not second and first.fuzziness is not second.fuzziness
        run_topsis(fresh, first)
        assert len(vars(fresh)["_tables"]) == 1
        assert run_topsis(fresh, second) == run_topsis(matrix, first)
        assert len(vars(fresh)["_tables"]) == 1

    def test_batched_columns_equal_one_cell_batches(self):
        # Lengths 1-8 in one matrix, cells whose values collide under 1 - v among them:
        # grouping lanes by length and placing them back moves no cell's sums.
        rng = random.Random("batch")
        cells = [
            canonicalize([(1e-17, 0.3), (2e-17, 0.7)]),
            canonicalize([(1e-17, 0.5 + 4e-13), (2e-17, 0.5 - 4e-13)]),
            canonicalize([(0.0, 0.2), (1e-17, 0.3), (2e-17, 0.1), (0.4, 0.4)]),
            canonicalize([(v, 0.125) for v in (0.0, 1e-17, 2e-17, 0.25, 0.5, 0.75, 0.9, 1.0)]),
        ]
        cells += [random_phfe(rng, 8) for _ in range(60)]
        rng.shuffle(cells)
        assert {len(c) for c in cells} == set(range(1, 9))
        rows = [cells[i:i + 8] for i in range(0, len(cells), 8)]
        for config in KERNEL_PAIRS:
            matrix = DecisionMatrix(
                tuple(f"x{i}" for i in range(len(rows))),
                tuple(CriterionSpec(f"c{j}") for j in range(8)),
                rows,
            )
            pairs = phfe.mcdm._columns(matrix, config)
            got = [[x.hex() for x in column] for pair in pairs for column in pair]
            single = [cell_sums(c, config) for c in cells]
            assert got == [[x.hex() for x in column] for column in zip(*single)], config.label

    def test_ideal_columns_build_no_hybrid(self, monkeypatch):
        # One in-place construction of the ideal lanes, also where 1 - v rounds values together.
        def refuse(a, b):
            raise AssertionError(f"hybrid({a}, {b}) built")

        monkeypatch.setattr(phfe.distance, "hybrid", refuse)
        monkeypatch.setattr(phfe.mcdm, "hybrid", refuse, raising=False)
        seeded = _seeded_matrix(seed=12, m=100, kinds=("benefit", "cost") * 5)
        rows = [list(row) for row in seeded.cells]
        rows[7][3] = canonicalize([(0.0, 0.2), (1e-17, 0.3), (2e-17, 0.1), (0.4, 0.4)])
        matrix = DecisionMatrix(seeded.alternatives, seeded.criteria, rows)
        for config in all_configs() + configs_at(2.0):
            run_topsis(matrix, config)

    def test_a_cached_run_combines_whole_columns(self):
        # On cached sums a run makes one combiner call for the weights and, per ideal,
        # one combiner and one generator call, not one call per cell.
        calls = []

        def counting(variant):
            fn = variant._fn

            def count(*columns):
                calls.append(variant.variant)
                return fn(*columns)

            variant.__dict__["_fn"] = count
            return variant

        matrix = _seeded_matrix(seed=12, m=100, kinds=("benefit", "cost") * 5)
        expected = run_topsis(matrix, EntropyConfig(R1, F2, THETA_PSUM), PSI_SQUARE)
        config = EntropyConfig(R1, F2, counting(ThetaCombiner("psum")))
        assert run_topsis(matrix, config, counting(PsiFunction("sq"))) == expected
        assert sorted(calls) == ["psum"] * 3 + ["sq"] * 2

    def test_cache_leaves_equality_and_hash_alone(self):
        used, fresh = _case_study_matrix(), _case_study_matrix()
        run_topsis(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_cell_grid_is_frozen(self):
        case = _case_study_matrix()
        rows = [list(row) for row in case.cells]
        matrix = DecisionMatrix(case.alternatives, case.criteria, rows)
        assert isinstance(matrix.cells, tuple) and all(isinstance(r, tuple) for r in matrix.cells)
        before = run_topsis(matrix)
        rows[0][0] = rows[1][1]  # the caller's lists no longer reach the matrix
        assert run_topsis(matrix) == before == run_topsis(case)
        assert matrix == case and hash(matrix) == hash(case)

    def test_names_and_criteria_are_frozen(self):
        case = _case_study_matrix()
        alternatives, criteria = list(case.alternatives), list(case.criteria)
        matrix = DecisionMatrix(alternatives, criteria, case.cells)
        assert matrix == case and hash(matrix) == hash(case)
        before = run_topsis(matrix)
        alternatives.append("x4")  # the caller's lists no longer reach the matrix
        criteria.append(CriterionSpec("c5"))
        assert matrix.shape == (3, 4)
        assert run_topsis(matrix) == before == run_topsis(case)
