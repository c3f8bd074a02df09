import ast
import builtins
import csv
import hashlib
import io
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phfe.cli
import phfe.verify
from phfe.baselines import expectation
from phfe.cli import build_parser, main
from phfe.distance import ALL_PSI, entropy_distance
from phfe.elements import MAX_ELEMENT_ITEMS, canonicalize, format_number, pi
from phfe.mcdm import parse_decision_matrix, run_topsis
from phfe.reproduce import load_table
from phfe.verify import random_phfe
from support import _compensated_sum, check_refusal, output, refused, run_cli


@pytest.fixture()
def elements_file(tmp_path):
    path = tmp_path / "elements.json"
    path.write_text(
        json.dumps(
            [
                {"pairs": [{"v": 0.7, "p": 0.2}, {"v": 0.9, "p": 0.8}]},
                {"pairs": [{"v": 0.6, "p": 0.9}, {"v": 0.9, "p": 0.1}]},
                {"pairs": [{"v": 0.6, "p": 0.1}, {"v": 0.9, "p": 0.9}]},
            ]
        )
    )
    return str(path)


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(load_table(9)["matrix"]))
    return str(path)


def _seeded_matrix(seed: int, m: int, n: int) -> dict:
    """A decision matrix of one- to three-valued cells on a 0.05 grid."""
    rng = random.Random(seed)

    def cell():
        k = rng.randrange(1, 4)
        return {"pairs": [{"v": t / 20, "p": 1 / k} for t in sorted(rng.sample(range(21), k))]}

    return {
        "criteria": [
            {"name": f"c{j + 1}", "kind": rng.choice(["benefit", "cost"])} for j in range(n)
        ],
        "alternatives": [f"x{i + 1}" for i in range(m)],
        "cells": [[cell() for _ in range(n)] for _ in range(m)],
    }


def _json_file(tmp_path, document) -> str:
    """The path of a file holding ``document``, written as JSON unless it is already text."""
    path = tmp_path / "input.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    return str(path)


_ONE = {"pairs": [{"v": 0.5, "p": 1}]}


def _csv_rows(argv: list) -> list:
    return list(csv.reader(io.StringIO(output(argv))))


class TestEntropyCommand:
    def test_published_column(self, elements_file):
        out = output(["entropy", "--input", elements_file, "--measure", "r1"])
        assert "0.151324" in out and "0.348782" in out and "0.194471" in out

    def test_exponent_flag(self, elements_file):
        assert "0.151324" in output(["entropy", "--input", elements_file, "--measure", "r1@r=1"])

    def test_baseline_contrast_on_split_element(self, tmp_path):
        path = _json_file(tmp_path, {"pairs": [{"v": 0, "p": 0.5}, {"v": 1, "p": 0.5}]})
        out = output(["entropy", "--input", path, "--measure", "su-p1,f1"]).splitlines()
        # The element repr contains a space, so read measure and value
        # from the right-hand end of each row.
        values = {line.split()[-2]: line.split()[-1] for line in out[1:]}
        assert float(values["su-p1"]) == 0.0
        assert float(values["f1"]) == 1.0

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_su_p1_of_crisp_values_prints_positive_zero(self, tmp_path, fmt):
        # Every value 0 or 1 sums to 0.0, and -0.0 / ln 2 would print "-0.0".
        path = _json_file(tmp_path, {"pairs": [{"v": 0, "p": 0.5}, {"v": 1, "p": 0.5}]})
        out = output(["entropy", "--input", path, "--measure", "su-p1", "--format", fmt])
        if fmt == "json":
            value = repr(json.loads(out)[0]["value"])
        else:
            value = out.splitlines()[1].replace(",", " ").split()[-1]
        assert value == "0.0"

    @pytest.mark.parametrize("command, column", [("entropy", 1), ("distance", 0)])
    def test_negative_zero_value_prints_as_zero(self, tmp_path, command, column):
        path = _json_file(tmp_path, [
            {"pairs": [{"v": -0.0, "p": 0.5}, {"v": 0.5, "p": 0.5}]},
            {"pairs": [{"v": 0.25, "p": 1.0}]},
        ])
        rows = _csv_rows([command, "--input", path, "--format", "csv"])
        assert rows[1][column] == "{0|0.5, 0.5|0.5}"

    def test_comprehensive_includes_components(self, elements_file):
        argv = ["entropy", "--input", elements_file, "--measure", "r1:f1:max", "--format", "json"]
        rows = json.loads(output(argv))
        assert {"fuzziness", "nonspecificity", "value"} <= set(rows[0])

    def test_r_flag_reaches_config_strings(self, elements_file):
        argv = ["entropy", "--input", elements_file, "--measure", "r1:f1:max@r=2"]
        rows = json.loads(output(argv + ["--format", "json"]))
        assert rows[0]["fuzziness"] == pytest.approx(0.298897, abs=1e-5)

    def test_no_exponent_flag(self, elements_file):
        # The id carries the exponent.  argparse matches flag prefixes, so a later flag
        # such as --rounds would quietly take --r; this pins the refusal.
        with pytest.raises(SystemExit) as caught:
            main(["entropy", "--input", elements_file, "--measure", "r1", "--r", "2"])
        assert caught.value.code == 2

    def test_unknown_measure_exits_2(self, elements_file):
        message = refused(["entropy", "--input", elements_file, "--measure", "bogus"])
        assert message == "unknown measure id 'bogus'"

    def test_missing_file_exits_2(self):
        assert "'/nonexistent.json'" in refused(["entropy", "--input", "/nonexistent.json"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--measure", "r1@r=abc"],
            ["entropy", "--measure", "r1:f1:max@r=1.2.3"],
            ["distance", "--config", "r1:f1:max@r=1.2.3"],
            # Only the r1 kernel has an exponent.
            ["entropy", "--measure", "r2@r=3"],
            ["entropy", "--measure", "r2:f1:max@r=3"],
            # The exponent must be finite.
            ["entropy", "--measure", "r1@r=1e999"],
            ["distance", "--config", "r1:f1:max@r=1e999"],
            # A long id is quoted in part only.
            ["entropy", "--measure", "x" * 5000],
            ["entropy", "--measure", "r1@r=" + "x" * 5000],
            ["entropy", "--measure", "r2@r=" + "x" * 5000],
            ["distance", "--config", "r1@r=1." + "0" * 5000],
            ["distance", "--config", "r1:" + "x" * 5000 + ":max"],
        ],
    )
    def test_bad_measure_id_exits_2(self, elements_file, argv):
        refused(argv + ["--input", elements_file])

    @pytest.mark.parametrize(
        "command, document",
        [
            ("entropy", {"pairs": [{"v": "abc", "p": 1}]}),
            ("entropy", {"terms": [{"t": 2, "p": 1}], "tau": "x"}),
            ("entropy", {"pairs": [{"v": None, "p": 1}]}),
            ("entropy", {"pairs": [{"v": "0.5", "p": 1}]}),
            ("entropy", {"pairs": [{"v": 0.5, "p": True}]}),
            ("entropy", {"terms": [{"t": 2.7, "p": 1}], "tau": 3}),
            ("entropy", {"terms": [{"t": 2, "p": 1}], "tau": 2.5}),
            # The matrix-level tau is read by the same rules.
            (
                "topsis",
                {
                    "criteria": [{"name": "c1"}],
                    "alternatives": ["x1"],
                    "cells": [[{"terms": [{"t": 2, "p": 1}]}]],
                    "tau": "3",
                },
            ),
            # An integer beyond the float range; the message skips its digits.
            ("entropy", {"pairs": [{"v": 10**400, "p": 1}]}),
            # Past Python's 4300-digit limit json.load itself refuses the
            # literal, and json.dumps cannot write it, so the text is raw.
            pytest.param(
                "entropy",
                '{"pairs": [{"v": ' + "1" * 5000 + ', "p": 1}]}',
                id="entropy-digits-past-limit",
            ),
            # A whole float becomes a 301-digit int; messages shorten it.
            ("entropy", {"terms": [{"t": 1e300, "p": 1}], "tau": 3}),
            ("entropy", {"terms": [{"t": -1, "p": 1}], "tau": 1e300}),
            (
                "topsis",
                {
                    "criteria": [{"name": "c1"}],
                    "alternatives": ["x1"],
                    "cells": [[{"terms": [{"t": 1e300, "p": 1}]}]],
                    "tau": 3,
                },
            ),
            ("entropy", {"terms": [{"t": 1, "p": 1}], "tau": -1e300}),
            # The top term 2 * tau lies beyond the float range.
            ("entropy", {"terms": [{"t": -1, "p": 1}], "tau": 1e308}),
            # Nesting past the recursion limit of json.load.
            pytest.param("entropy", "[" * 200_000 + "]" * 200_000, id="entropy-deep-nesting"),
        ],
    )
    def test_non_number_fields_exit_2(self, tmp_path, command, document):
        refused([command, "--input", _json_file(tmp_path, document)])

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("table", "index  element  measure  value\n"),
            ("csv", "index,element,measure,value\n"),
            ("json", "[]\n"),
        ],
        ids=["table", "csv", "json"],
    )
    def test_empty_element_list(self, tmp_path, fmt, expected):
        for document in ([], {"phfes": []}):
            path = _json_file(tmp_path, document)
            assert output(["entropy", "--input", path, "--format", fmt]) == expected

    @pytest.mark.parametrize("document", ["ab", {"phfes": "ab"}], ids=["string", "string-phfes"])
    def test_a_string_of_elements_exits_2(self, tmp_path, document):
        # A string is not read letter by letter, one refused element per letter.
        path = _json_file(tmp_path, json.dumps(document))  # "ab" as a JSON string
        for command in ("entropy", "distance"):
            message = refused([command, "--input", path])
            assert message == "expected an element object or an array of them"

    @pytest.mark.parametrize(
        "document, message",
        [({"pairs": "ab"}, '"pairs" must be a list'),
         ([{"terms": {"t": 1, "p": 1}, "tau": 2}], '[0]: "terms" must be a list')],
        ids=["string-pairs", "object-terms"],
    )
    def test_a_non_list_item_list_exits_2(self, tmp_path, document, message):
        assert refused(["entropy", "--input", _json_file(tmp_path, document)]) == message

    @pytest.mark.parametrize(
        "document, message",
        [({"phfes": [_ONE, 5]}, "phfes[1]: expected an object, got int"),
         ([_ONE, 5], "[1]: expected an object, got int"),
         ({"phfes": [_ONE, {"pairs": [{"v": 0.5, "p": "x"}]}]},
          'phfes[1].pairs[0].p: must be a number, got "x"'),
         ({"phfes": [{"pairs": [{"v": 1.5, "p": 1}]}]},
          "phfes[0]: membership value 1.5 outside [0, 1]")],
        ids=["int-in-phfes", "int-in-array", "string-p-in-phfes", "range"],
    )
    def test_a_refused_element_is_named_by_its_index(self, tmp_path, document, message):
        # An item of the element array by its index, then an item inside it by its own.
        for command in ("entropy", "distance"):
            assert refused([command, "--input", _json_file(tmp_path, document)]) == message

    def test_an_element_longer_than_the_cap_exits_2(self, tmp_path):
        # MAX_ELEMENT_ITEMS values are read; one more is refused under the element's name.
        def element(length):
            return {"pairs": [{"v": k / 64, "p": 1 / length} for k in range(length)]}

        longest = {"phfes": [_ONE, element(MAX_ELEMENT_ITEMS)]}
        assert "hybrid_size" in output(["distance", "--input", _json_file(tmp_path, longest)])
        document = {"phfes": [_ONE, element(MAX_ELEMENT_ITEMS + 1)]}
        for command in ("entropy", "distance"):
            message = refused([command, "--input", _json_file(tmp_path, document)])
            assert message == 'phfes[1]: "pairs" has 41 items, more than 40'

    @pytest.mark.parametrize("command, floats", [("entropy", 15), ("distance", 3)])
    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_each_number_is_rounded_once(self, elements_file, monkeypatch, command, floats, fmt):
        # Three elements: three measures each (the config with its two components), or three pairs.
        calls = []

        def counting(x):
            calls.append(x)
            return format_number(x)

        monkeypatch.setattr(phfe.cli, "format_number", counting)
        output([command, "--input", elements_file, "--format", fmt])
        assert len(calls) == floats

    def test_csv_format(self, elements_file):
        argv = ["entropy", "--input", elements_file, "--measure", "r1", "--format", "csv"]
        lines = output(argv).splitlines()
        assert lines[0].startswith("index,")
        assert len(lines) == 4

    def test_csv_parses_back(self, elements_file):
        # Multi-valued elements print with a comma; r1 rows leave the component cells empty.
        argv = ["entropy", "--input", elements_file, "--measure", "r1,r1:f1:max"]
        rows = _csv_rows(argv + ["--format", "csv"])
        expected = json.loads(output(argv + ["--format", "json"]))
        assert len(rows) == len(expected) + 1
        assert all(len(row) == len(rows[0]) == 6 for row in rows)
        assert [row[1] for row in rows[1:]] == [r["element"] for r in expected]
        assert rows[1][1] == "{0.7|0.2, 0.9|0.8}" and rows[1][4:] == ["", ""]

    @pytest.mark.parametrize(
        "argv, labels",
        [
            (["--measure", "r1@r=2,r1:f1:max@r=2"], ["r1@r=2", "r1:f1:max@r=2"]),
            (["--measure", "r1,su-d,r1:f2:psum"], ["r1", "su-d", "r1:f2:psum"]),
        ],
        ids=["r2", "canonical"],
    )
    def test_measure_column_names_what_was_computed(self, elements_file, argv, labels):
        rows = json.loads(output(["entropy", "--input", elements_file, "--format", "json"] + argv))
        assert [r["measure"] for r in rows[: len(labels)]] == labels


class TestDistanceCommand:
    def test_pairwise_table(self, elements_file):
        assert "hybrid_size" in output(["distance", "--input", elements_file, "--psi", "sq"])

    def test_requires_two_elements(self, tmp_path):
        path = _json_file(tmp_path, {"pairs": [{"v": 0.5, "p": 1.0}]})
        message = refused(["distance", "--input", path])
        assert message == "distance needs at least two elements in the input"

    def test_csv_parses_back(self, elements_file):
        rows = _csv_rows(["distance", "--input", elements_file, "--format", "csv"])
        assert rows[0] == ["a", "b", "distance", "hybrid_size"]
        assert len(rows) == 4 and all(len(row) == 4 for row in rows)
        assert rows[1][:2] == ["{0.7|0.2, 0.9|0.8}", "{0.6|0.9, 0.9|0.1}"]


class TestTopsisCommand:
    def test_case_study_table(self, matrix_file):
        assert "ranking: x3 > x1 > x2" in output(["topsis", "--input", matrix_file])

    def test_case_study_json(self, matrix_file):
        payload = json.loads(output(["topsis", "--input", matrix_file, "--format", "json"]))
        assert payload["ranking"] == ["x3", "x1", "x2"]
        assert sum(payload["weights"]["normalized"]) == pytest.approx(1.0, abs=1e-5)

    def test_config_flag(self, matrix_file):
        argv = ["topsis", "--input", matrix_file, "--config", "r2:f3:bsum", "--psi", "harm"]
        assert "ranking:" in output(argv)

    @pytest.mark.parametrize(
        "cells",
        [5, [5], [[{"pairs": [{"v": 0.5, "p": 1}]}], "ab"]],  # a string row, not one cell a letter
        ids=["grid-number", "row-number", "row-string"],
    )
    def test_non_list_cells_exit_2(self, tmp_path, cells):
        document = {"criteria": [{"name": "c1"}], "alternatives": ["x1"], "cells": cells}
        message = refused(["topsis", "--input", _json_file(tmp_path, document)])
        assert message.startswith("decision matrix cells must be a list of rows")

    @pytest.mark.parametrize("criteria", ["ab", {"c1": 1}], ids=["string", "object"])
    def test_non_list_criteria_exit_2(self, tmp_path, criteria):
        # Refused by its shape, not with the TypeError of reading a string or object as criteria.
        document = {"criteria": criteria, "alternatives": ["x1"], "cells": [[]]}
        message = refused(["topsis", "--input", _json_file(tmp_path, document)])
        assert message == '"criteria" must be a list'

    def test_a_non_object_item_in_a_cell_exits_2(self, tmp_path):
        cells = [[{"pairs": [{"v": 0.5, "p": 1}, 5]}]]
        document = {"criteria": [{"name": "c1"}], "alternatives": ["x1"], "cells": cells}
        message = refused(["topsis", "--input", _json_file(tmp_path, document)])
        assert message == 'cells[0][0].pairs[1] must be an object with "v" and "p"'

    @pytest.mark.parametrize(
        "document",
        [
            {"criteria": [{"name": "c1"}], "alternatives": [], "cells": []},
            {"criteria": [], "alternatives": ["x1"], "cells": [[]]},
        ],
        ids=["no-alternatives", "no-criteria"],
    )
    def test_an_empty_matrix_exits_2(self, tmp_path, document):
        message = refused(["topsis", "--input", _json_file(tmp_path, document)])
        assert message == "matrix needs at least one alternative and one criterion"

    def test_non_list_alternatives_exit_2(self, tmp_path):
        # A string would otherwise run as one alternative per letter.
        cell = {"pairs": [{"v": 0.5, "p": 1}]}
        document = {"criteria": [{"name": "c1"}], "alternatives": "ab", "cells": [[cell], [cell]]}
        assert "alternatives" in refused(["topsis", "--input", _json_file(tmp_path, document)])

    def test_duplicate_alternatives_exit_2(self, tmp_path):
        # Otherwise the ranking could not say which "x" is which.
        cells = [[{"pairs": [{"v": 0.9, "p": 1}]}], [{"pairs": [{"v": 0.3, "p": 1}]}]]
        document = {"criteria": [{"name": "c1"}], "alternatives": ["x", "x"], "cells": cells}
        path = _json_file(tmp_path, document)
        assert "alternative names" in refused(["topsis", "--input", path, "--format", "csv"])

    def test_bsum_refusal_names_the_alternative(self, tmp_path):
        # bsum saturates at 1 on both ideal hybrids of x1, so d+ = d- = 0 there.
        cells = [
            [{"pairs": [{"v": 0.41, "p": 0.44}, {"v": 0.95, "p": 0.56}]}],
            [{"pairs": [{"v": 0.03, "p": 1}]}],
        ]
        document = {"criteria": [{"name": "c1", "kind": "cost"}], "alternatives": ["x1", "x2"]}
        path = _json_file(tmp_path, {**document, "cells": cells})
        output(["topsis", "--input", path, "--config", "r1:f1:max"])
        message = refused(["topsis", "--input", path, "--config", "r1:f1:bsum"])
        assert message == "alternative 'x1' has zero distance to both ideals"

    @pytest.mark.parametrize(
        "field, patch",
        [
            ("alternative name", {"alternatives": [1, None]}),
            ("alternative name", {"alternatives": ["x1", ["x2"]]}),
            ("criterion name", {"criteria": [{"name": 5}]}),
            ("criterion kind", {"criteria": [{"name": "c1", "kind": None}]}),
            ("criterion kind", {"criteria": [{"name": "c1", "kind": 1}]}),
            ("criterion kind", {"criteria": [{"name": "c1", "kind": "k" * 5000}]}),
        ],
        ids=[
            "alternative-number", "alternative-list", "criterion-number", "kind-null",
            "kind-number", "kind-long",
        ],
    )
    def test_non_string_names_exit_2(self, tmp_path, field, patch):
        cell = {"pairs": [{"v": 0.5, "p": 1}]}
        document = {"criteria": [{"name": "c1"}], "alternatives": ["x1", "x2"]}
        path = _json_file(tmp_path, {**document, "cells": [[cell], [cell]], **patch})
        message = refused(["topsis", "--input", path])
        assert field in message and "'None'" not in message  # null is not the string "None"

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"alternatives": ["a\rb", "x2"]}, "alternative name"),
            ({"alternatives": ["x1", "tab\there"]}, "alternative name"),
            ({"alternatives": ["x1", "next\x85line"]}, "alternative name"),
            ({"criteria": [{"name": "c\n1"}]}, "criterion name"),
        ],
        ids=["carriage-return", "tab", "c1-control", "criterion-line-feed"],
    )
    def test_control_characters_in_names_exit_2(self, tmp_path, patch, field):
        cell = {"pairs": [{"v": 0.5, "p": 1}]}
        document = {"criteria": [{"name": "c1"}], "alternatives": ["x1", "x2"]}
        path = _json_file(tmp_path, {**document, "cells": [[cell], [cell]], **patch})
        message = refused(["topsis", "--input", path, "--format", "csv"])
        assert message.startswith(f"{field} ") and message.endswith("holds a control character")

    def test_csv_parses_back(self, tmp_path):
        document = load_table(9)["matrix"]
        document["alternatives"] = ["x, y", 'say "z"', "w"]
        rows = _csv_rows(["topsis", "--input", _json_file(tmp_path, document), "--format", "csv"])
        assert rows[0] == ["alternative", "d_plus", "d_minus", "closeness", "rank"]
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == document["alternatives"]

    def test_printable_unicode_names_parse_back(self, tmp_path):
        # Only control characters are refused: no-break space, dash and joiner pass.
        document = load_table(9)["matrix"]
        document["alternatives"] = ["w\u00e9", "a\u2014b", "x\u00a0y\u200d"]
        document["criteria"][0]["name"] = "c\u00a01"
        rows = _csv_rows(["topsis", "--input", _json_file(tmp_path, document), "--format", "csv"])
        assert [row[0] for row in rows[1:]] == document["alternatives"]

    @pytest.mark.parametrize("command", ["distance", "topsis"])
    def test_psi_choices_are_the_generator_labels(self, command):
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
        psi = next(a for a in sub._actions if a.dest == "psi")
        assert list(psi.choices) == sorted(p.label for p in ALL_PSI)


_NUMBERS = st.sampled_from([0, 0.5, 1]) | st.integers() | st.floats()
_KEYS = st.sampled_from(
    ["pairs", "terms", "v", "p", "t", "tau", "phfes"]
    + ["criteria", "alternatives", "cells", "name", "kind"]
)
#: Arbitrary small JSON documents over the keys the input formats read.
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16,
)
_PAIRS = {"pairs": [{"v": 0.7, "p": 0.2}, {"v": 0.9, "p": 0.8}]}
_TERMS = {"terms": [{"t": 1, "p": 0.5}, {"t": 4, "p": 0.5}], "tau": 3}
#: Valid inputs of entropy and distance (the first two) and of topsis (the last).
_VALID_DOCUMENTS = [
    [_PAIRS, _TERMS],
    {"phfes": [_PAIRS, _TERMS]},
    {
        "criteria": [{"name": "c1", "kind": "benefit"}, {"name": "c2", "kind": "cost"}],
        "alternatives": ["x1", "x2"],
        "cells": [
            [_PAIRS, {"terms": [{"t": 2, "p": 1}]}],
            [_TERMS, {"pairs": [{"v": 0.4, "p": 1}]}],
        ],
        "tau": 3,
    },
]


def _paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


def _spliced(node, path, value):
    """A copy of ``node`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[path[0]] = _spliced(node[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "document.json"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_arbitrary_documents_exit_0_or_2(document_path, data):
    """Whatever JSON arrives, entropy, distance and topsis answer it or refuse it cleanly,
    each refusal held to ``check_refusal``.

    A drawn document replaces one node of a valid input, the root included,
    so that a malformed part is met at every depth.
    """
    base = data.draw(st.sampled_from(_VALID_DOCUMENTS))
    path = data.draw(st.sampled_from(list(_paths(base))))
    document_path.write_text(json.dumps(_spliced(base, path, data.draw(_DOCUMENTS))))
    for command in ("entropy", "distance", "topsis"):
        code, out, err = run_cli([command, "--input", str(document_path)])
        if code != 0:
            check_refusal(code, out, err)


class TestReproduceCommand:
    def test_default_exit_zero(self):
        out = output(["reproduce"])
        assert "[MATCH] fuzz:r1 values" in out
        assert "MISMATCH (report-only)" in out
        assert "documented deviations:" in out

    def test_strict_exit_one(self):
        assert run_cli(["reproduce", "--strict"])[0] == 1

    def test_byte_identical_output(self):
        assert output(["reproduce"]) == output(["reproduce"])


def corrupted_complement(a):
    """Deliberately wrong complement, patched into ``phfe.verify.complement``."""
    shifted = [(min(1.0, 1.0 - v * 0.9), p) for v, p in a]
    values = sorted(v for v, _ in shifted)
    if len(set(values)) != len(values):
        shifted = [(v * 0.5 + i * 1e-3, p) for i, (v, p) in enumerate(shifted)]
    return canonicalize(shifted)


def asymmetric_pi(a, b):
    """``pi`` raised by 1e-15 where ``a > b``, patched into ``phfe.verify.pi``."""
    return pi(a, b) + 1e-15 if a > b else pi(a, b)


def offset_distance(a, b, *args):
    """``entropy_distance`` plus 2**-52, patched into ``phfe.verify.entropy_distance``."""
    return entropy_distance(a, b, *args) + 2**-52


class TestAxiomsCommand:
    def test_small_run_passes(self):
        out = output(["axioms", "--seed", "7", "--samples", "60"])
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_mutation_mode_fails(self, monkeypatch):
        monkeypatch.setattr(phfe.verify, "complement", corrupted_complement)
        code, out, _ = run_cli(["axioms", "--seed", "7", "--samples", "60"])
        assert code == 1
        assert "[FAIL] complement involution" in out
        assert "counterexample:" in out

    def test_zero_samples_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--samples", "0"])
        assert exc.value.code == 2

    def test_byte_identical_for_seed(self):
        argv = ["axioms", "--seed", "3", "--samples", "40"]
        assert output(argv) == output(argv)


@pytest.mark.parametrize(
    "argv, mutant, code, digest",
    [
        (
            ["reproduce"],
            None,
            0,
            "360748d3c6c862c9e19afaedf0e43c9a4047afdcb9d364083eefee7ee1012514",
        ),
        (
            ["reproduce", "--strict"],
            None,
            1,
            "5b32749df82176d2d7f85cf6b33a0ffd27955d0a81d7a7860a7a3f680a9f24ac",
        ),
        (
            ["axioms", "--seed", "42", "--samples", "300"],
            None,
            0,
            "e03bda014a76ba4e85074423d7835429ae2f00fc896c9c27ad8d5a9e3bbd837e",
        ),
        # Mutants print counterexamples, so they also pin message text and check order.
        (
            ["axioms", "--seed", "7", "--samples", "60"],
            ("complement", corrupted_complement),
            1,
            "62cb731089484c55cdeb1b4ce4d912c0701c82f39324d750d4aff7ac43623847",
        ),
        (
            ["axioms", "--seed", "7", "--samples", "60"],
            ("pi", asymmetric_pi),
            1,
            "2c5bb44200eeff85b7d8c4ac1cf604dad19df65614796efef7eea71309be0f24",
        ),
        (
            ["axioms", "--seed", "7", "--samples", "60"],
            ("entropy_distance", offset_distance),
            1,
            "970c309a5c0e3db862494e5d9f997f0d07479f43e789182928b54bcc32b47620",
        ),
    ],
    ids=[
        "reproduce",
        "reproduce-strict",
        "axioms",
        "axioms-mutate-complement",
        "axioms-mutate-pi",
        "axioms-mutate-distance",
    ],
)
def test_stdout_digest(monkeypatch, argv, mutant, code, digest):
    """SHA-256 of stdout pins the report and the axiom output byte for byte.

    A ``mutant`` ``(name, function)`` replaces ``phfe.verify.<name>`` for the
    run.  A changed digest means the output changed; update one only
    together with a CHANGES.md line that says why.
    """
    if mutant is not None:
        monkeypatch.setattr(phfe.verify, *mutant)
    got, out, _ = run_cli(argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["entropy", "ELEMENTS", "--measure", "r1,su-d,r1:f2:psum", "--format", "json"],
            "a0a1c2ec6cc0bd6551dd1477f4fe2475bfb4e3f8acf01a667886e99f8f39dd00",
        ),
        (
            ["entropy", "ELEMENTS", "--measure", "r1,su-d,r1:f2:psum", "--format", "table"],
            "947395f1095dc03f90134a455def57eabddd66b8a1df6fe117fa8a506acea686",
        ),
        (
            ["distance", "ELEMENTS", "--format", "json"],
            "01c534677d5265227c45e5533a51cad8a5fcf74a15f1c8f1324c82083ac09e61",
        ),
        (
            ["distance", "ELEMENTS", "--format", "table"],
            "52824922ae9398787bb81ecdec1523bf53cbf91e70737cf9ff72db3f9ffafff7",
        ),
        (
            ["topsis", "CASE", "--config", "r2:f3:bsum", "--psi", "harm", "--format", "json"],
            "43e1ecf22c082bdb883c9309ab99dec82e51ad9537e3f2b4fcb31ce9c09e0033",
        ),
        (
            ["topsis", "CASE", "--config", "r2:f3:bsum", "--psi", "harm", "--format", "table"],
            "ab93dad7fea0e55657eeb793ad3faf66f52de7ac56e7e2b915ff6387f7bce7dc",
        ),
        (
            ["topsis", "CASE", "--config", "r2:f3:bsum", "--psi", "harm", "--format", "csv"],
            "dfc9a023b6d5becf42245ac2581df8b3780c44264f44704f92c49c877a27299b",
        ),
        (
            ["topsis", "SEEDED", "--format", "json"],
            "46da9fdab68b9c71740fbf61b52caed7b2d426cd3423e3e168472bc557a855a9",
        ),
        (
            ["topsis", "SEEDED", "--format", "table"],
            "d7ed23548892c53e9c769ef2efeab5e4d9286ce7a22d866d797ae0d5cc053996",
        ),
        (
            ["topsis", "SEEDED", "--format", "csv"],
            "d0cf7a58e5a988770692c9825aa29658d8287c2c8113ddf17f4eeea443aaa62f",
        ),
        # Element reprs, every kernel label (r1@r=1.0000001 takes the repr
        # fallback) and the CSV writer, byte for byte.
        (
            [
                "entropy", "ELEMENTS", "--measure",
                "r1,r2,f1,f2,f3,su-p1,su-p2,r1@r=1.0000001,r2:f3:bsum", "--format", "csv",
            ],
            "a0c96e2911436cb155ec6a236e5c8d59c5ae1d021f33d6de415d9056738c496f",
        ),
        (
            ["distance", "ELEMENTS", "--config", "r1:f2:psum@r=2", "--psi", "exp", "--format", "csv"],
            "28cfac9e8b149968341bcf7ff2c7a8aa9cc22a87d2824648fd6038a771d34f84",
        ),
        (
            ["entropy", "ELEMENTS", "--format", "table"],
            "ba976cbef2e97f634b8194274257120c5d097bec9f074eef33e8834deac5b7c4",
        ),
    ],
    ids=[
        "entropy-json", "entropy-table", "distance-json", "distance-table",
        "topsis-case-json", "topsis-case-table", "topsis-case-csv",
        "topsis-seeded-json", "topsis-seeded-table", "topsis-seeded-csv",
        "entropy-kernels-csv", "distance-psum-r2-csv", "entropy-default-measures-table",
    ],
)
def test_command_stdout_digest(tmp_path, elements_file, matrix_file, argv, digest):
    """SHA-256 of stdout pins the entropy, distance and topsis output byte for byte.

    ELEMENTS is the three-element fixture, CASE the case-study matrix and
    SEEDED a seed-5 100x10 matrix; update a digest only together with a
    CHANGES.md line that says why.
    """
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(_seeded_matrix(5, 100, 10)))
    inputs = {"ELEMENTS": elements_file, "CASE": matrix_file, "SEEDED": str(seeded)}
    argv = [argv[0], "--input", inputs[argv[1]], *argv[2:]]
    assert hashlib.sha256(output(argv).encode()).hexdigest() == digest


def _cases(test):
    """The parameter sets and ids of a parametrized test, to run them again."""
    (mark,) = test.pytestmark
    return pytest.mark.parametrize("case", mark.args[1], ids=mark.kwargs["ids"])


@_cases(test_stdout_digest)
def test_stdout_digest_on_a_compensating_sum(monkeypatch, case):
    """Output does not depend on how the interpreter's ``sum`` rounds floats."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert sum([0.1] * 10) == 1.0  # the left-to-right sum gives 0.9999999999999999
    test_stdout_digest(monkeypatch, *case)


@_cases(test_command_stdout_digest)
def test_command_stdout_digest_on_a_compensating_sum(
    monkeypatch, tmp_path, elements_file, matrix_file, case
):
    """Output does not depend on how the interpreter's ``sum`` rounds floats."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    test_command_stdout_digest(tmp_path, elements_file, matrix_file, *case)


def _summed_numbers(seed: int):
    """Numbers the library builds from float sums: TOPSIS weights and closeness, element
    expectations, and the probabilities of the axiom harness's random draws."""
    result = run_topsis(parse_decision_matrix(_seeded_matrix(seed, 12, 10)))
    rng = random.Random(seed)
    elements = [random_phfe(rng) for _ in range(200)]
    numbers = [*result.weights.raw, *result.weights.normalized, *result.closeness]
    numbers += [expectation(a) for a in elements] + [p for a in elements for p in a.probs]
    return [x.hex() for x in numbers], result.ranking


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_numbers_on_a_compensating_sum(monkeypatch, seed):
    """Bit-identical under either ``sum``, also where six-digit output would hide a change."""
    plain = _summed_numbers(seed)
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _summed_numbers(seed) == plain


def test_main_runs_only_through_support():
    """Outside ``support.py`` the tests run ``phfe.cli.main`` only where argparse exits first,
    inside ``with pytest.raises(SystemExit)``; every other run goes through ``run_cli``."""
    stray = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        if path.name == "support.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        exits = {  # every node inside a with block that expects SystemExit
            inner
            for node in nodes
            if isinstance(node, ast.With)
            and "pytest.raises(SystemExit)" in [ast.unparse(item.context_expr) for item in node.items]
            for inner in ast.walk(node)
        }
        stray += [
            f"{path.name}:{node.lineno}"
            for node in nodes
            if isinstance(node, ast.Call) and node not in exits
            and "main" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert stray == []
