import json

import pytest

from phfe.cli import main
from phfe.reproduce import load_table


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


class TestEntropyCommand:
    def test_published_column(self, elements_file, capsys):
        assert main(["entropy", "--input", elements_file, "--measure", "r1"]) == 0
        out = capsys.readouterr().out
        assert "0.151324" in out and "0.348782" in out and "0.194471" in out

    def test_exponent_flag(self, elements_file, capsys):
        assert main(["entropy", "--input", elements_file, "--measure", "r1@r=1"]) == 0
        assert "0.151324" in capsys.readouterr().out

    def test_baseline_contrast_on_split_element(self, tmp_path, capsys):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"pairs": [{"v": 0, "p": 0.5}, {"v": 1, "p": 0.5}]}))
        assert main(["entropy", "--input", str(path), "--measure", "su-p1,f1"]) == 0
        out = capsys.readouterr().out.splitlines()
        # The element repr contains a space, so read measure and value
        # from the right-hand end of each row.
        values = {line.split()[-2]: line.split()[-1] for line in out[1:]}
        assert float(values["su-p1"]) == 0.0
        assert float(values["f1"]) == 1.0

    def test_comprehensive_includes_components(self, elements_file, capsys):
        assert main(
            ["entropy", "--input", elements_file, "--measure", "r1:f1:max", "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"fuzziness", "nonspecificity", "value"} <= set(rows[0])

    def test_r_flag_reaches_config_strings(self, elements_file, capsys):
        assert main(
            ["entropy", "--input", elements_file, "--measure", "r1:f1:max",
             "--r", "2", "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["fuzziness"] == pytest.approx(0.298897, abs=1e-5)
        # An explicit suffix wins over the flag.
        assert main(
            ["entropy", "--input", elements_file, "--measure", "r1:f1:max@r=1",
             "--r", "2", "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["fuzziness"] == pytest.approx(0.151324, abs=1e-5)

    def test_unknown_measure_exits_2(self, elements_file, capsys):
        assert main(["entropy", "--input", elements_file, "--measure", "bogus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["entropy", "--input", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--measure", "r1@r=abc"],
            ["entropy", "--measure", "r1:f1:max@r=1.2.3"],
            ["distance", "--config", "r1:f1:max@r=1.2.3"],
            # Only the r1 kernel has an exponent.
            ["entropy", "--measure", "r2@r=3"],
            ["entropy", "--measure", "r2:f1:max@r=3"],
        ],
    )
    def test_bad_measure_id_exits_2(self, elements_file, capsys, argv):
        assert main(argv + ["--input", elements_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_csv_format(self, elements_file, capsys):
        assert main(
            ["entropy", "--input", elements_file, "--measure", "r1", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("index,")
        assert len(lines) == 4


class TestDistanceCommand:
    def test_pairwise_table(self, elements_file, capsys):
        assert main(["distance", "--input", elements_file, "--psi", "sq"]) == 0
        out = capsys.readouterr().out
        assert "hybrid_size" in out

    def test_requires_two_elements(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"pairs": [{"v": 0.5, "p": 1.0}]}))
        assert main(["distance", "--input", str(path)]) == 2


class TestTopsisCommand:
    def test_case_study_table(self, matrix_file, capsys):
        assert main(["topsis", "--input", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "ranking: x3 > x1 > x2" in out

    def test_case_study_json(self, matrix_file, capsys):
        assert main(["topsis", "--input", matrix_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranking"] == ["x3", "x1", "x2"]
        assert sum(payload["weights"]["normalized"]) == pytest.approx(1.0, abs=1e-5)

    def test_config_flag(self, matrix_file, capsys):
        assert main(
            ["topsis", "--input", matrix_file, "--config", "r2:f3:bsum", "--psi", "harm"]
        ) == 0
        assert "ranking:" in capsys.readouterr().out


class TestReproduceCommand:
    def test_default_exit_zero(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "[MATCH] fuzz:r1 values" in out
        assert "MISMATCH (report-only)" in out
        assert "documented deviations:" in out

    def test_strict_exit_one(self, capsys):
        assert main(["reproduce", "--strict"]) == 1

    def test_byte_identical_output(self, capsys):
        main(["reproduce"])
        first = capsys.readouterr().out
        main(["reproduce"])
        second = capsys.readouterr().out
        assert first == second


class TestAxiomsCommand:
    def test_small_run_passes(self, capsys):
        assert main(["axioms", "--seed", "7", "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_mutation_mode_fails(self, capsys):
        assert main(
            ["axioms", "--seed", "7", "--samples", "60", "--mutate", "complement"]
        ) == 1
        out = capsys.readouterr().out
        assert "[FAIL] complement involution" in out
        assert "counterexample:" in out

    def test_zero_samples_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--samples", "0"])
        assert exc.value.code == 2

    def test_byte_identical_for_seed(self, capsys):
        main(["axioms", "--seed", "3", "--samples", "40"])
        first = capsys.readouterr().out
        main(["axioms", "--seed", "3", "--samples", "40"])
        second = capsys.readouterr().out
        assert first == second
