import csv
import json

import numpy as np
import pytest

from cfqp.cases import bundled_case_json, bundled_problem_json
from cfqp.cli import EXIT_CODES, main
from cfqp.model import deserialize
from cfqp.problem import MpQpProblem

MATPOWER_TEXT = """
function mpc = tiny
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0.0  0 0 0 1 1 0 230 1 1.1 0.9;
    2 1 80.0 0 0 0 1 1 0 230 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 99 -99 1.0 100 1 200 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.05 12 0;
];
"""


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "two_parameter.json"
    path.write_text(bundled_problem_json())
    return str(path)


@pytest.fixture()
def case_file(tmp_path):
    path = tmp_path / "case6.json"
    path.write_text(bundled_case_json())
    return str(path)


@pytest.fixture()
def model_2d_file(tmp_path, problem_file):
    out = tmp_path / "model2d.json"
    code = main([
        "discover", "--problem", problem_file,
        "--theta0", "100,100", "--steps", "60", "--out", str(out),
    ])
    assert code == 0
    return str(out)


class TestDiscoverCommand:
    def test_finds_four_regions(self, problem_file, model_2d_file, capsys):
        problem = MpQpProblem.from_json(open(problem_file).read())
        model = deserialize(open(model_2d_file, "rb").read(), problem)
        assert {tuple(r.active_set) for r in model.regions} == {
            (3, 4), (1, 3, 4), (1, 3, 4, 5), (1, 3, 4, 6),
        }

    def test_summary_output(self, problem_file, tmp_path, capsys):
        code = main([
            "discover", "--problem", problem_file,
            "--theta0", "100,100", "--steps", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "regions: 4" in out
        assert "wall time" in out

    def test_log_file(self, problem_file, tmp_path):
        log = tmp_path / "log.jsonl"
        main([
            "discover", "--problem", problem_file, "--theta0", "100,100",
            "--steps", "60", "--log", str(log),
        ])
        events = [json.loads(l) for l in log.read_text().splitlines()]
        assert events[0]["event"] == "init"
        assert events[-1]["event"] == "end"

    def test_infeasible_anchor_exit_code(self, problem_file):
        code = main([
            "discover", "--problem", problem_file, "--theta0", "600,600",
        ])
        assert code == EXIT_CODES["infeasible"]

    def test_missing_input_is_usage_error(self):
        assert main(["discover"]) == EXIT_CODES["usage"]

    def test_bad_theta0_is_usage_error(self, problem_file):
        assert main([
            "discover", "--problem", problem_file, "--theta0", "1,2,3",
        ]) == EXIT_CODES["usage"]

    @pytest.mark.parametrize("flag,value", [
        ("--theta0", "nan,100"), ("--theta0", "100,inf"),
        ("--extent", "nan,800"), ("--extent", "800,-inf"),
    ])
    def test_non_finite_vector_is_usage_error(self, problem_file, capsys, flag, value):
        argv = ["discover", "--problem", problem_file, "--steps", "20", flag, value]
        if flag == "--extent":
            argv += ["--theta0", "100,100"]
        assert main(argv) == EXIT_CODES["usage"]
        assert flag in capsys.readouterr().err

    def test_case_input(self, case_file, tmp_path):
        out = tmp_path / "model6.json"
        assert main([
            "discover", "--case", case_file, "--steps", "30",
            "--out", str(out),
        ]) == 0
        assert out.exists()


class TestPredictCommand:
    def test_csv_batch(self, problem_file, model_2d_file, tmp_path, capsys):
        # a header, a comment and a blank line; an m1-column row and a
        # d-column (stacked) row in one file
        thetas = tmp_path / "thetas.csv"
        stacked_400 = ",".join(["0"] * 6 + ["400", "400"] + ["0"] * 6)
        thetas.write_text(f"theta1,theta2\n# load levels\n150,150\n\n{stacked_400}\n")
        out = tmp_path / "solutions.csv"
        assert main([
            "predict", "--problem", problem_file, "--model", model_2d_file,
            "--thetas", str(thetas), "--out", str(out),
        ]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        assert float(rows[1]["x1"]) == pytest.approx(20.0, abs=1e-6)
        assert float(rows[1]["kkt4"]) < 1e-10
        assert "evaluated in" in capsys.readouterr().err
        assert open(out, "rb").read().count(b"\r\n") == 3

        # the same rows as JSON-lines records give the same output
        records = tmp_path / "thetas.jsonl"
        records.write_text('{"theta_e": [150, 150]}\n\n{"theta_e": [400, 400]}\n')
        out_jsonl = tmp_path / "solutions-jsonl.csv"
        assert main([
            "predict", "--problem", problem_file, "--model", model_2d_file,
            "--thetas", str(records), "--out", str(out_jsonl),
        ]) == 0
        assert out_jsonl.read_bytes() == out.read_bytes()

    def test_malformed_theta_row(self, problem_file, model_2d_file, tmp_path, capsys):
        thetas = tmp_path / "thetas.csv"
        # wrong length, then a non-finite row after a good one, then an
        # inf row whose line number counts comment and blank lines
        for text, line in (("1,2,3,4,5\n", 1), ("150,150\nnan,100\n", 2),
                           ("# load\n150,150\n\n100,inf\n", 4)):
            thetas.write_text(text)
            assert main([
                "predict", "--problem", problem_file, "--model", model_2d_file,
                "--thetas", str(thetas),
            ]) == EXIT_CODES["usage"]
            assert f"{thetas}:{line}:" in capsys.readouterr().err

    def test_wrong_problem_digest(self, case_file, model_2d_file, tmp_path):
        thetas = tmp_path / "thetas.csv"
        thetas.write_text("0,0,0,0,0,0\n")
        assert main([
            "predict", "--case", case_file, "--model", model_2d_file,
            "--thetas", str(thetas),
        ]) == EXIT_CODES["digest"]

    def test_truncated_model(self, problem_file, model_2d_file, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_bytes(open(model_2d_file, "rb").read()[:50])
        thetas = tmp_path / "thetas.csv"
        thetas.write_text("150,150\n")
        assert main([
            "predict", "--problem", problem_file, "--model", str(broken),
            "--thetas", str(thetas),
        ]) == EXIT_CODES["format"]


class TestGenDataAndKktReport:
    def test_local_jsonl_and_report(self, case_file, tmp_path, capsys):
        data = tmp_path / "local.jsonl"
        assert main([
            "gen-data", "local", "--case", case_file, "--count", "30",
            "--seed", "3", "--out", str(data),
        ]) == 0
        records = [json.loads(l) for l in data.read_text().splitlines()]
        assert len(records) == 30
        assert all(len(r["theta_e"]) == 6 for r in records)

        model = tmp_path / "model6.json"
        assert main([
            "discover", "--case", case_file, "--steps", "30",
            "--out", str(model),
        ]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "kkt.csv"
        assert main([
            "kkt-report", "--case", case_file, "--model", str(model),
            "--dataset", str(data), "--out", str(out_csv),
        ]) == 0
        printed = capsys.readouterr().out
        assert "KKT1-P_g" in printed and "KKT1-delta" in printed
        rows = {r["condition"]: r for r in csv.DictReader(open(out_csv))}
        assert float(rows["KKT4"]["mean"]) < 1e-12
        assert float(rows["KKT2(=)"]["worst"]) < 1e-12

    @pytest.mark.parametrize("record", [
        {"feasible": True},                          # no theta_e
        {"theta_e": [150.0, 150.0, 1.0]},            # wrong length
        {"theta_e": [float("nan"), 150.0]},          # non-finite
    ], ids=["missing", "wrong_length", "non_finite"])
    def test_kkt_report_bad_record_is_usage_error(
        self, problem_file, model_2d_file, tmp_path, capsys, record
    ):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"theta_e": [150.0, 150.0]}) + "\n"
                        + json.dumps(record) + "\n")
        assert main([
            "kkt-report", "--problem", problem_file, "--model", model_2d_file,
            "--dataset", str(data),
        ]) == EXIT_CODES["usage"]
        assert f"{data}:2:" in capsys.readouterr().err

    def test_scaled_counts_printed(self, case_file, tmp_path, capsys):
        data = tmp_path / "scaled.jsonl"
        assert main([
            "gen-data", "scaled", "--case", case_file, "--count", "20",
            "--seed", "7", "--scales", "1,1.5,2", "--out", str(data),
        ]) == 0
        out = capsys.readouterr().out
        assert "scale 1:" in out and "scale 2:" in out
        records = [json.loads(l) for l in data.read_text().splitlines()]
        assert len(records) == 60
        assert {r["scale"] for r in records} == {1.0, 1.5, 2.0}

    def test_gen_data_determinism(self, case_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "gen-data", "local", "--case", case_file, "--count", "10",
                "--seed", "5", "--format", "csv", "--out", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()


class TestImportCase:
    def test_import_and_build(self, tmp_path, capsys):
        mfile = tmp_path / "tiny.m"
        mfile.write_text(MATPOWER_TEXT)
        out = tmp_path / "tiny.json"
        assert main([
            "import-case", "--matpower", str(mfile), "--out", str(out),
        ]) == 0
        case = json.loads(out.read_text())
        assert case["slack_bus"] == 1
        assert case["generators"][0]["q"] == 0.05
        assert main([
            "discover", "--case", str(out), "--steps", "20",
        ]) == 0

    def test_missing_table_exit_code(self, tmp_path):
        mfile = tmp_path / "bad.m"
        mfile.write_text("mpc.baseMVA = 100;")
        assert main([
            "import-case", "--matpower", str(mfile),
        ]) == EXIT_CODES["format"]


    def test_gen_without_gencost_row_exit_code(self, tmp_path):
        mfile = tmp_path / "nocost.m"
        mfile.write_text(MATPOWER_TEXT.replace(
            "    1 0 0 99 -99 1.0 100 1 200 0;\n",
            "    1 0 0 99 -99 1.0 100 1 200 0;\n    2 0 0 99 -99 1.0 100 1 50 0;\n",
        ))
        assert main([
            "import-case", "--matpower", str(mfile),
        ]) == EXIT_CODES["format"]

    def test_gen_row_without_limits_exit_code(self, tmp_path):
        mfile = tmp_path / "nolimits.m"
        mfile.write_text(MATPOWER_TEXT.replace("1 0 0 99 -99 1.0 100 1 200 0;",
                                               "1 0 0 99 -99 1.0 100 1;"))
        assert main([
            "import-case", "--matpower", str(mfile),
        ]) == EXIT_CODES["format"]

    def test_non_finite_case_exit_code(self, tmp_path):
        case = json.loads(bundled_case_json())
        case["generators"][0]["pmax"] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(case))  # writes the non-standard Infinity token
        assert main([
            "discover", "--case", str(path), "--steps", "20",
        ]) == EXIT_CODES["format"]


class TestBench:
    def test_bench_reports_speedup(self, case_file, tmp_path, capsys):
        model = tmp_path / "model6.json"
        assert main([
            "discover", "--case", case_file, "--steps", "30",
            "--out", str(model),
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--case", case_file, "--model", str(model),
            "--count", "50", "--jitter", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "model batch" in out
        assert "oracle" in out
        assert "speedup" in out
