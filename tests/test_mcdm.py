import builtins
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phfe.distance
import phfe.entropy
from phfe import (
    ALL_PSI,
    CriterionSpec,
    DecisionMatrix,
    DegenerateWeightsError,
    EMPTY_ELEMENT,
    EntropyConfig,
    FULL_ELEMENT,
    ParseError,
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
from test_cli import _compensated_sum


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


class TestCloseness:
    def test_extremes_and_symmetry(self):
        assert closeness(0.0, 0.7) == 1.0
        assert closeness(0.7, 0.0) == 0.0
        assert closeness(0.3, 0.3) == 0.5

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            closeness(0.0, 0.0)


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
        # One three-lane loop per cell and kernel pair sums the cell and both its
        # ideal hybrids, a cell whose values collide under 1 - v included; no
        # cell enters _pairwise.
        passes = []
        original = phfe.distance._pairwise3

        def counting(*args):
            passes.append(args[1:])
            return original(*args)

        def refuse(*args):
            raise AssertionError("_pairwise entered")

        monkeypatch.setattr(phfe.distance, "_pairwise3", counting)
        monkeypatch.setattr(phfe.entropy, "_pairwise", refuse)
        seeded = _seeded_matrix()
        rows = [list(row) for row in seeded.cells]
        rows[1][2] = canonicalize([(1e-17, 0.3), (2e-17, 0.7)])  # 1 - v is 1.0 for both
        matrix = DecisionMatrix(seeded.alternatives, seeded.criteria, rows)
        m, n = matrix.shape
        entropy_weights(matrix)  # weights alone fill all six columns of the pair
        assert len(passes) == m * n
        for config in all_configs():
            run_topsis(matrix, config)
        assert len(passes) == 6 * m * n
        assert len(set(passes)) == 6
        for config in all_configs():
            run_topsis(matrix, config)
        assert len(passes) == 6 * m * n
        run_topsis(matrix, EntropyConfig.from_string("r1:f1:max@r=2"))
        run_topsis(matrix, EntropyConfig.from_string("r1:f1:bsum@r=2"))
        assert len(passes) == 7 * m * n

    def test_ideal_columns_build_no_hybrid(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError(f"hybrid({a}, {b}) built")

        monkeypatch.setattr(phfe.distance, "hybrid", refuse)
        matrix = _seeded_matrix(seed=12, m=100, kinds=("benefit", "cost") * 5)
        for config in all_configs() + all_configs(2.0):
            run_topsis(matrix, config)

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
