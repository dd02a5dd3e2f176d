import csv
import gc
import hashlib
import json
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cfqp.cli
import cfqp.model
from cfqp.cases import bundled_case_json, bundled_problem_json, case6
from cfqp.cli import EXIT_CODES, _csv_rows, _read_dataset, main
from cfqp.dcopf import build_dcopf, build_dcopf_with_lines
from cfqp.errors import UnresolvableTransition
from cfqp.model import cast, deserialize, forward_array, serialize
from cfqp.oracle import _accepted, kkt_means
from cfqp.problem import MpQpProblem, ParameterPoint

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


def test_bundled_json_is_pinned():
    """The bundled fixtures are built by code; their JSON text, which
    tests, scripts and the benchmark write out as input files, is fixed."""
    assert hashlib.sha256(bundled_problem_json().encode()).hexdigest() == (
        "c3988963bca17247246810c21a47b500fd811b71d9c0f8062c50f0f2cf3de2bd")
    assert hashlib.sha256(bundled_case_json().encode()).hexdigest() == (
        "f33414554946b6662b4c29eaaeda2b7fbaf698fa2d16d40a209a9287e4e822f2")


class TestDiscoverCommand:
    def test_finds_four_regions(self, problem_file, model_2d_file, capsys):
        problem = MpQpProblem.from_json(Path(problem_file).read_text())
        model = deserialize(Path(model_2d_file).read_bytes(), problem)
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

    def test_counters_line(self, problem_file, tmp_path, capsys):
        """After the regions, one line counts the log's records and times
        the bisection of the default pattern's extents."""
        log = tmp_path / "log.jsonl"
        assert main([
            "discover", "--problem", problem_file, "--theta0", "100,100",
            "--steps", "60", "--log", str(log),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        (at,) = [i for i, line in enumerate(lines) if line.startswith("counters: ")]
        assert lines[at - 1].startswith("  region 3: ")
        counts, seconds = lines[at].split(", extent bisection ")
        points = sum(r["event"] == "point" for r in records)
        assert points == 247
        assert counts == (f"counters: points {points}, halvings 0, transitions 3, "
                          "boundary 0, warnings 0")
        assert seconds.endswith(" s") and float(seconds[:-2]) > 0.0

    def test_leaves_no_cyclic_garbage(self, problem_file, tmp_path):
        """A discover run, after a first one has built the command-line
        parser, frees everything it made by reference counting alone."""
        argv = ["discover", "--problem", problem_file, "--theta0", "100,100",
                "--steps", "20", "--out", str(tmp_path / "model.json")]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []

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

    @pytest.mark.parametrize("scales", ["nan,1", "inf"])
    def test_non_finite_scales_is_usage_error(self, problem_file, capsys, scales):
        assert main([
            "discover", "--problem", problem_file, "--theta0", "100,100",
            "--pattern", "scaled", "--scales", scales, "--extent", "100,100",
            "--steps", "5",
        ]) == EXIT_CODES["usage"]
        assert "--scales" in capsys.readouterr().err

    def test_subnormal_extent_skips_its_axis(self, problem_file, capsys):
        """An extent whose per-step delta underflows to 0.0 is skipped like
        a zero extent."""
        assert main([
            "discover", "--problem", problem_file, "--theta0", "100,100",
            "--extent", "5e-324,1", "--steps", "2",
        ]) == 0
        assert "regions: 1" in capsys.readouterr().out

    def test_32_bit_two_parameter_run(self, problem_file, capsys):
        """Discovery runs at float64 at either precision, so the 32-bit
        run finds criterion 1's four regions."""
        assert main([
            "discover", "--problem", problem_file, "--theta0", "100,100",
            "--steps", "200", "--precision", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert [line.split(": active set ")[1] for line in out.splitlines()
                if ": active set " in line] == [
            "[3, 4]", "[1, 3, 4]", "[1, 3, 4, 5]", "[1, 3, 4, 6]",
        ]

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
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["x1"]) == pytest.approx(20.0, abs=1e-6)
        assert float(rows[1]["kkt4"]) < 1e-10
        assert "evaluated in" in capsys.readouterr().err
        assert out.read_bytes().count(b"\r\n") == 3

        # the same rows as JSON-lines records give the same output
        records = tmp_path / "thetas.jsonl"
        records.write_text('{"theta_e": [150, 150]}\n\n{"theta_e": [400, 400]}\n')
        out_jsonl = tmp_path / "solutions-jsonl.csv"
        assert main([
            "predict", "--problem", problem_file, "--model", model_2d_file,
            "--thetas", str(records), "--out", str(out_jsonl),
        ]) == 0
        assert out_jsonl.read_bytes() == out.read_bytes()

    def test_gen_data_csv_input(self, case_file, tmp_path):
        """predict reads gen-data's CSV (theta_e columns picked by name,
        past the feasible and scale columns) as it reads its JSON-lines."""
        model = tmp_path / "model6.json"
        assert main(["discover", "--case", case_file, "--steps", "30",
                     "--out", str(model)]) == 0
        outputs = []
        for fmt in ("csv", "jsonl"):
            data = tmp_path / f"local.{fmt}"
            out = tmp_path / f"solutions-{fmt}.csv"
            assert main(["gen-data", "local", "--case", case_file, "--count", "20",
                         "--seed", "2", "--format", fmt, "--out", str(data)]) == 0
            assert main(["predict", "--case", case_file, "--model", str(model),
                         "--thetas", str(data), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\r\n") == 21
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text", ["# note\nth1,th2\n100,100\n", "\nth1,th2\n100,100\n",
                                      "  \nth1,th2\n \n100,100\n"],
                             ids=["comment", "blank", "whitespace"])
    def test_header_after_comment_or_blank_line(self, problem_file, model_2d_file, tmp_path,
                                                text):
        plain = tmp_path / "plain.csv"
        plain.write_text("100,100\n")
        thetas = tmp_path / "thetas.csv"
        thetas.write_text(text)
        for path in (plain, thetas):
            assert main([
                "predict", "--problem", problem_file, "--model", model_2d_file,
                "--thetas", str(path), "--out", f"{path}.out",
            ]) == 0
        assert Path(f"{thetas}.out").read_bytes() == Path(f"{plain}.out").read_bytes()

    @pytest.mark.parametrize("text", ["", "# no rows\n\n"], ids=["empty", "comments"])
    def test_no_theta_rows_writes_header_only(self, problem_file, model_2d_file, tmp_path,
                                              text):
        thetas = tmp_path / "thetas.csv"
        thetas.write_text(text)
        out = tmp_path / "solutions.csv"
        assert main([
            "predict", "--problem", problem_file, "--model", model_2d_file,
            "--thetas", str(thetas), "--out", str(out),
        ]) == 0
        data = out.read_bytes()
        assert data.startswith(b"x1,") and data.endswith(b",kkt4\r\n")
        assert data.count(b"\n") == 1

    def test_malformed_theta_row(self, problem_file, model_2d_file, tmp_path, capsys):
        thetas = tmp_path / "thetas.csv"
        out = tmp_path / "solutions.csv"
        # wrong length, then a non-finite row after a good one, then an
        # inf row whose line number counts comment and blank lines, then a
        # cell np.loadtxt reads as 100 and float() rejects
        for text, line in (("1,2,3,4,5\n", 1), ("150,150\nnan,100\n", 2),
                           ("# load\n150,150\n\n100,inf\n", 4),
                           ("150,150\n100\x1c,100\n", 2)):
            thetas.write_text(text)
            for target in ([], ["--out", str(out)]):
                assert main([
                    "predict", "--problem", problem_file, "--model", model_2d_file,
                    "--thetas", str(thetas), *target,
                ]) == EXIT_CODES["usage"]
                captured = capsys.readouterr()
                assert f"{thetas}:{line}:" in captured.err
                assert captured.out == "" and not out.exists()

    def test_bad_row_in_a_later_block(self, problem_file, model_2d_file, tmp_path, capsys,
                                      monkeypatch):
        """In blocks of 64 characters (8 rows of '150,150'), a bad row on
        line 40 is read after 32 rows were evaluated and written: --out
        still leaves no file, temporary or not, while stdout has the
        header and those 32 rows.  A good file gives the bytes it gives
        when read in one block."""
        thetas = tmp_path / "thetas.csv"
        out = tmp_path / "solutions.csv"
        argv = ["predict", "--problem", problem_file, "--model", model_2d_file,
                "--thetas", str(thetas)]
        thetas.write_text("150,150\n" * 39 + "200,100\n")
        assert main(argv + ["--out", str(out)]) == 0
        whole = out.read_bytes()
        out.unlink()
        monkeypatch.setattr(cfqp.cli, "_BLOCK_CHARS", 64)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == whole
        out.unlink()

        thetas.write_text("150,150\n" * 39 + "150,nan\n")
        files = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == EXIT_CODES["usage"]
        assert f"{thetas}:40:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == files
        assert main(argv) == EXIT_CODES["usage"]
        captured = capsys.readouterr()
        assert f"{thetas}:40:" in captured.err
        assert captured.out.encode() == b"".join(whole.splitlines(keepends=True)[:33])

    @pytest.mark.parametrize("flag", [["--precision", "32"], ["--tol", "5"], ["--seed", "1"]],
                             ids=["precision", "tol", "seed"])
    def test_unread_flag_is_usage_error(self, problem_file, model_2d_file, tmp_path, flag):
        thetas = tmp_path / "thetas.csv"
        thetas.write_text("150,150\n")
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--problem", problem_file, "--model", model_2d_file,
                  "--thetas", str(thetas), *flag])
        assert exc.value.code == EXIT_CODES["usage"]

    def test_wrong_problem_digest(self, case_file, model_2d_file, tmp_path):
        thetas = tmp_path / "thetas.csv"
        thetas.write_text("0,0,0,0,0,0\n")
        assert main([
            "predict", "--case", case_file, "--model", model_2d_file,
            "--thetas", str(thetas),
        ]) == EXIT_CODES["digest"]

    def test_truncated_model(self, problem_file, model_2d_file, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_bytes(Path(model_2d_file).read_bytes()[:50])
        thetas = tmp_path / "thetas.csv"
        thetas.write_text("150,150\n")
        assert main([
            "predict", "--problem", problem_file, "--model", str(broken),
            "--thetas", str(thetas),
        ]) == EXIT_CODES["format"]


def test_reader_memory_is_bounded_by_its_block(tmp_path):
    """Reading 100,000 case6 rows (d = 20, a 37 MB file) allocates under
    24 MB at its peak: the reader holds one block of the text and its
    rows, not the whole file and a list of floats per row (117 MB)."""
    problem = build_dcopf(case6())[0]
    row = ",".join(map(repr, np.random.default_rng(0).uniform(-50.0, 50.0, problem.d).tolist()))
    path = tmp_path / "thetas.csv"
    path.write_text((row + "\n") * 100_000)
    tracemalloc.start()
    try:
        count = sum(len(thetas) for thetas, _ in _read_dataset(problem, str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 100_000
    assert peak < 24e6


def repr_rows(table):
    """The plain CSV formatting predict's output must equal."""
    return "".join(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


class TestPredictFormatting:
    def test_csv_rows_match_repr(self, model_2d):
        # 32-bit network values promoted to float64, next to signed zeros
        # in one column, repeats and extreme magnitudes
        Theta = np.tile([0.0] * 6 + [100.0, 100.0] + [0.0] * 6, (8, 1))
        Theta[:, 6:8] += np.linspace(0.0, 700.0, 8)[:, None]
        outputs = forward_array(cast(model_2d, 32), Theta)
        assert outputs[0].dtype == np.float32
        special = np.resize([
            [0.0, 1e16, 5e-324, 1e-05, 0.1],
            [-0.0, 1e16, -5e-324, 1e-05, 0.1],
            [0.0, -1e16, 5e-324, -1e-05, 2.5],
        ], (len(Theta), 5))
        table = np.hstack([*outputs[:3], outputs[3][:, None], special])
        assert table.dtype == np.float64
        assert _csv_rows(table) == repr_rows(table)
        assert "-0.0" in _csv_rows(table)

    def test_predict_output_matches_repr(self, problem_file, model_2d_file, tmp_path):
        problem = MpQpProblem.from_json(Path(problem_file).read_text())
        model = cast(deserialize(Path(model_2d_file).read_bytes(), problem), 32)
        model_32 = tmp_path / "model32.json"
        model_32.write_bytes(serialize(model))
        Theta = np.zeros((40, problem.d))
        Theta[:, problem.n:problem.n + 2] = np.linspace(100.0, 500.0, 80).reshape(40, 2)
        thetas = tmp_path / "thetas.csv"
        thetas.write_text("".join(",".join(map(repr, row)) + "\n" for row in Theta.tolist()))
        out = tmp_path / "solutions.csv"
        assert main([
            "predict", "--problem", problem_file, "--model", str(model_32),
            "--thetas", str(thetas), "--out", str(out),
        ]) == 0
        X, Lam, Mu, objective = forward_array(model, Theta)
        table = np.hstack([X, Lam, Mu, objective[:, None], kkt_means(problem, X, Lam, Mu, Theta)])
        assert out.read_bytes().split(b"\r\n", 1)[1] == repr_rows(table).encode()


def fixed_width_thetas(tmp_path, count=24):
    """The same ``count`` theta_e rows as a CSV file and a JSON-lines file,
    each line of a file as long as every other, so that a block of b
    rows is b times a line's length."""
    a = np.linspace(100.0, 499.0, count)
    pairs = [f"{x:.3f},{y:.3f}" for x, y in zip(a, a[::-1])]
    files = {}
    for fmt, line in (("csv", "{}\n"), ("jsonl", '{{"theta_e": [{}]}}\n')):
        lines = [line.format(pair) for pair in pairs]
        assert len(set(map(len, lines))) == 1
        files[fmt] = tmp_path / f"thetas.{fmt}"
        files[fmt].write_text("".join(lines))
    return files


class TestPredictWorkers:
    """predict splits each block's chunks among forked workers, one per
    CPU it may run on (``os.sched_getaffinity``) and at most one per
    chunk; its output does not depend on how many."""

    @pytest.mark.parametrize("elements", [1, 1000], ids=["row-chunks", "multi-row-chunks"])
    @pytest.mark.parametrize("block_chunks", [1, 2, 5, None],
                             ids=["one-chunk-blocks", "two-chunk-blocks", "five-chunk-blocks",
                                  "one-block"])
    def test_output_does_not_depend_on_processes(self, problem_file, model_2d_file, tmp_path,
                                                 capsys, monkeypatch, elements, block_chunks):
        """With chunks of ``elements`` elements and blocks of
        ``block_chunks`` chunks, 1, 2 and 3 CPUs give the bytes one block
        of one chunk gives, to --out and to stdout, from CSV and
        JSON-lines thetas; a block of fewer chunks than CPUs takes one
        process per chunk."""
        files = fixed_width_thetas(tmp_path)
        argv = ["predict", "--problem", problem_file, "--model", model_2d_file]
        out = tmp_path / "solutions.csv"
        assert main(argv + ["--thetas", str(files["csv"]), "--out", str(out)]) == 0
        assert capsys.readouterr().err.endswith(" on 1 process\n")
        expected = out.read_bytes()
        assert expected.count(b"\r\n") == 25

        monkeypatch.setattr(cfqp.model, "_CHUNK_ELEMENTS", elements)
        problem = MpQpProblem.from_json(Path(problem_file).read_text())
        chunk = deserialize(Path(model_2d_file).read_bytes(), problem).chunk_rows
        assert (chunk == 1) == (elements == 1)
        block = 24 if block_chunks is None else block_chunks * chunk
        chunks = -(-min(block, 24) // chunk)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            processes = min(cpus, chunks)
            line = f" on {processes} process{'es' if processes > 1 else ''}\n"
            for fmt, thetas in files.items():
                width = len(thetas.read_text().split("\n", 1)[0]) + 1
                monkeypatch.setattr(cfqp.cli, "_BLOCK_CHARS", block * width)
                assert main(argv + ["--thetas", str(thetas), "--out", str(out)]) == 0
                assert out.read_bytes() == expected
                assert capsys.readouterr().err.endswith(line)
                assert main(argv + ["--thetas", str(thetas)]) == 0
                captured = capsys.readouterr()
                assert captured.out.encode() == expected
                assert captured.err.endswith(line)

    def test_no_worker_outlives_predict(self, problem_file, model_2d_file, tmp_path, capsys,
                                        monkeypatch):
        """Two CPUs and one-row chunks in blocks of 8 rows: after a good
        run, a run stopped by a bad row in the fifth block, a run whose
        worker raises and one whose own run raises, no worker is left
        unreaped and no file is left behind, temporary or not.  A failed
        worker exits 1 with one error line; when the parent's own run
        raises, it kills its workers rather than wait for them."""
        monkeypatch.setattr(cfqp.model, "_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(cfqp.cli, "_BLOCK_CHARS", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where the workers spill
        thetas = tmp_path / "thetas.csv"
        out = tmp_path / "solutions.csv"
        argv = ["predict", "--problem", problem_file, "--model", model_2d_file,
                "--thetas", str(thetas)]
        thetas.write_text("150,150\n" * 39 + "200,100\n")
        files = sorted(tmp_path.iterdir())

        def no_worker_left():
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert sorted(tmp_path.iterdir()) == files

        assert main(argv) == 0
        whole = capsys.readouterr()
        assert whole.out.count("\r\n") == 41
        assert whole.err.endswith(" on 2 processes\n")
        no_worker_left()

        thetas.write_text("150,150\n" * 39 + "150,nan\n")
        assert main(argv + ["--out", str(out)]) == EXIT_CODES["usage"]
        no_worker_left()
        assert main(argv) == EXIT_CODES["usage"]
        captured = capsys.readouterr()
        assert f"{thetas}:40:" in captured.err
        assert captured.out == "".join(whole.out.splitlines(keepends=True)[:33])
        no_worker_left()

        thetas.write_text("150,150\n" * 39 + "200,100\n")
        test_pid, csv_rows = os.getpid(), cfqp.cli._csv_rows

        def failing_worker(table):
            if os.getpid() != test_pid:
                raise RuntimeError("a worker failed")
            return csv_rows(table)

        monkeypatch.setattr(cfqp.cli, "_csv_rows", failing_worker)
        for target in (["--out", str(out)], []):
            assert main(argv + target) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "RuntimeError: a worker failed" in err
            no_worker_left()

        def failing_parent(table):
            if os.getpid() == test_pid:
                raise RuntimeError("the parent failed")
            time.sleep(20)  # a worker the parent did not kill holds the run up
            return csv_rows(table)

        monkeypatch.setattr(cfqp.cli, "_csv_rows", failing_parent)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="the parent failed"):
            main(argv + ["--out", str(out)])
        assert time.perf_counter() - start < 10
        no_worker_left()


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
        with open(out_csv) as fh:
            rows = {r["condition"]: r for r in csv.DictReader(fh)}
        assert float(rows["KKT4"]["mean"]) < 1e-12
        assert float(rows["KKT2(=)"]["worst"]) < 1e-12

    @pytest.mark.parametrize("record", [
        {"feasible": True},                          # no theta_e
        {"theta_e": [150.0, 150.0, 1.0]},            # wrong length
        {"theta_e": [float("nan"), 150.0]},          # non-finite
        "150,150\n150,x\n",                          # CSV: not a number
        "theta_e1,theta_e2,feasible\n150,150,yes\n",  # CSV: not a flag
        {"theta_e": [150.0, 150.0], "feasible": "false"},  # JSON: not a flag
        {"theta_e": [150.0, 150.0], "feasible": "no"},
        {"theta_e": [150.0, 150.0], "feasible": None},
    ], ids=["missing", "wrong_length", "non_finite", "csv_row", "csv_flag",
            "json_flag_text", "json_flag_word", "json_flag_null"])
    def test_kkt_report_bad_record_is_usage_error(
        self, problem_file, model_2d_file, tmp_path, capsys, record
    ):
        if isinstance(record, str):
            data = tmp_path / "data.csv"
            data.write_text(record)
        else:
            data = tmp_path / "data.jsonl"
            data.write_text(json.dumps({"theta_e": [150.0, 150.0]}) + "\n"
                            + json.dumps(record) + "\n")
        assert main([
            "kkt-report", "--problem", problem_file, "--model", model_2d_file,
            "--dataset", str(data),
        ]) == EXIT_CODES["usage"]
        assert f"{data}:2:" in capsys.readouterr().err

    def test_kkt_report_reads_json_flags_as_csv_cells(
        self, problem_file, model_2d_file, tmp_path, capsys
    ):
        """A JSON-lines ``feasible`` is read as a CSV cell is: false, 0 and
        "0" skip the infeasible theta_e (5000, 5000); true, 1, "1" and a
        missing flag keep the feasible (100, 100)."""
        data = tmp_path / "data.jsonl"
        records = [{"theta_e": [5000.0, 5000.0], "feasible": f} for f in (False, 0, "0", 0.0)]
        records += [{"theta_e": [100.0, 100.0], "feasible": f} for f in (True, 1, "1")]
        records += [{"theta_e": [100.0, 100.0]}]
        data.write_text("".join(json.dumps(record) + "\n" for record in records))
        assert main(["kkt-report", "--problem", problem_file, "--model", model_2d_file,
                     "--dataset", str(data)]) == 0
        assert "feasible rows: 4, infeasible rows excluded: 4" in capsys.readouterr().out

    def test_empty_variable_group_exit_code(self, tmp_path, capsys):
        """A problem with an empty variable group is malformed, so both
        commands that read it exit 6 before any work (kkt-report would
        otherwise reduce over an empty KKT1 slice)."""
        problem = json.loads(bundled_problem_json())
        problem["variable_groups"] = {"a": list(range(6)), "b": []}
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(problem))
        model = tmp_path / "model.json"
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"theta_e": [150.0, 150.0]}) + "\n")
        for argv in (
            ["discover", "--theta0", "100,100", "--steps", "20", "--out", str(model)],
            ["kkt-report", "--model", str(model), "--dataset", str(data)],
        ):
            assert main(argv + ["--problem", str(path)]) == EXIT_CODES["format"]
            assert "variable group 'b' is empty" in capsys.readouterr().err

    def test_kkt_report_reads_gen_data_csv(self, case_file, tmp_path, capsys):
        """kkt-report reads gen-data's CSV as it reads its JSON-lines twin:
        at scale 2, 15 of the 20 rows are infeasible and the feasible
        column leaves them out."""
        model = tmp_path / "model6.json"
        assert main(["discover", "--case", case_file, "--steps", "30",
                     "--out", str(model)]) == 0
        outputs = []
        for fmt in ("csv", "jsonl"):
            data = tmp_path / f"scaled.{fmt}"
            out = tmp_path / f"kkt-{fmt}.csv"
            assert main(["gen-data", "scaled", "--case", case_file, "--count", "20",
                         "--seed", "7", "--scales", "1,1.5,2", "--format", fmt,
                         "--out", str(data)]) == 0
            capsys.readouterr()
            assert main(["kkt-report", "--case", case_file, "--model", str(model),
                         "--dataset", str(data), "--out", str(out)]) == 0
            assert "infeasible rows excluded: 15" in capsys.readouterr().out
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("lines", [False, True], ids=["box", "lines"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_labels_match_enumeration(self, case_file, tmp_path, lines, seed):
        """Every label of gen-data local, scaled and extreme, decided in one
        feasible_array call per dataset, is the enumeration's answer."""
        problem = (build_dcopf_with_lines if lines else build_dcopf)(case6())[0]
        for kind, size in (("local", ["--count", "30"]),
                           ("scaled", ["--count", "10", "--scales", "1,1.5,2"]),
                           ("extreme", ["--steps", "12"])):
            data = tmp_path / f"{kind}.jsonl"
            assert main(["gen-data", kind, "--case", case_file, *(["--lines"] * lines),
                         "--seed", str(seed), *size, "--out", str(data)]) == 0
            records = [json.loads(line) for line in data.read_text().splitlines()]
            assert {r["feasible"] for r in records} == {True, False} or kind == "local"
            for r in records:
                theta = ParameterPoint.of_theta_e(problem, r["theta_e"])
                assert r["feasible"] == (next(_accepted(problem, theta), None) is not None)

    def test_largest_seed_is_accepted(self, case_file, tmp_path):
        """A seed is a 128-bit Philox key, so 2**128 - 1 is the largest
        one (2**128 is a usage error, see test_bad_argument_is_usage_error)."""
        data = tmp_path / "local.jsonl"
        assert main(["gen-data", "local", "--case", case_file, "--count", "3",
                     "--seed", str(2 ** 128 - 1), "--out", str(data)]) == 0
        assert len(data.read_text().splitlines()) == 3

    def test_scaled_counts_printed(self, case_file, tmp_path, capsys):
        data = tmp_path / "scaled.jsonl"
        assert main([
            "gen-data", "scaled", "--case", case_file, "--count", "20",
            "--seed", "7", "--scales", "1,1.5,2", "--out", str(data),
        ]) == 0
        err = capsys.readouterr().err
        assert "scale 1:" in err and "scale 2:" in err
        records = [json.loads(l) for l in data.read_text().splitlines()]
        assert len(records) == 60
        assert {r["scale"] for r in records} == {1.0, 1.5, 2.0}

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_stdout_is_the_dataset(self, case_file, tmp_path, capsys, fmt):
        """Without --out, gen-data's stdout holds the dataset alone (the
        survival counts go to stderr), so it can be piped into kkt-report."""
        model = tmp_path / "model6.json"
        assert main(["discover", "--case", case_file, "--steps", "30",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["gen-data", "scaled", "--case", case_file, "--count", "2",
                     "--scales", "1,2", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert "scale 1: " in err and "scale 2: " in err and "feasible\n" not in out
        data = tmp_path / f"piped.{fmt}"
        data.write_text(out)
        assert main(["kkt-report", "--case", case_file, "--model", str(model),
                     "--dataset", str(data)]) == 0
        assert "feasible rows: " in capsys.readouterr().out

    @pytest.mark.parametrize("scales", ["nan,1", "inf"])
    def test_non_finite_scales_is_usage_error(self, case_file, tmp_path, capsys, scales):
        data = tmp_path / "scaled.jsonl"
        assert main([
            "gen-data", "scaled", "--case", case_file, "--count", "2",
            "--scales", scales, "--out", str(data),
        ]) == EXIT_CODES["usage"]
        assert "--scales" in capsys.readouterr().err
        assert not data.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "local", "--count", "3"],
        ["discover", "--steps", "5"],
    ], ids=["gen-data-local", "discover"])
    def test_enumeration_limit_is_usage_error(self, tmp_path, capsys, argv):
        """case6 with four more limited lines has m2 = 26, past the
        oracle's enumeration limit: a one-line error and exit 2, no file."""
        case = json.loads(bundled_case_json())
        case["lines"] += [{"from": a, "to": b, "susceptance": 3.0, "limit": 150.0}
                          for a, b in ((4, 5), (5, 6), (4, 6), (2, 4))]
        path = tmp_path / "case6_more_lines.json"
        path.write_text(json.dumps(case))
        out = tmp_path / "out"
        assert main([*argv, "--case", str(path), "--lines", "--out", str(out)]) == (
            EXIT_CODES["usage"])
        assert capsys.readouterr().err == (
            "error: EnumerationLimit: active-set enumeration is limited to m2 <= 24, got 26\n")
        assert not out.exists()

    def test_gen_data_determinism(self, case_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "gen-data", "local", "--case", case_file, "--count", "10",
                "--seed", "5", "--format", "csv", "--out", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()


#: sha256 of gen-data's output file per kind, format and problem, for
#: --seed 5 --count 40 --steps 10 and the default scales.
GEN_DATA_DIGESTS = {
    "local-jsonl": "80f28a21035738a0cc12d272561b250c5fd7d6851be7f5b39c590249d2282b92",
    "local-csv": "0093a7c979fb247aeeb9b5f432024256bf2c07ad135d6d5b4484335c425ac248",
    "scaled-jsonl": "b2890e31ea7507f9f3dd0e8537af68b5fe082103be0fd3d9200a64b098de3d09",
    "scaled-csv": "7b94eed6a548134a5d6889c30b7e9cd26df60bcdb021fee51290b94480ed5ee5",
    "extreme-jsonl": "9a5b1be5fa2c0d128da8efda8a76ddb89fe8144350543e78ec7cf2cb7bc3d75a",
    "extreme-csv": "7d01ebd7e00eea502e1ec6125199aff16d65781f745a34248a778ff022967529",
    "local-jsonl-lines": "80f28a21035738a0cc12d272561b250c5fd7d6851be7f5b39c590249d2282b92",
    "local-csv-lines": "0093a7c979fb247aeeb9b5f432024256bf2c07ad135d6d5b4484335c425ac248",
    "scaled-jsonl-lines": "c91deb638ff192bcfaf4afb10bdf966af1ed8430b93e0747db51bdde82e3e28f",
    "scaled-csv-lines": "5ab0c4f74f053995cc236050041a3107bb3db6cd63516e80795c29d296649e2f",
    "extreme-jsonl-lines": "31ad27c9e3d83295910778d8932f030107215663d5c05c89e2a51f76b6a4818d",
    "extreme-csv-lines": "d2f286a6dff8738e1ba4770c9c4ae6b08c37a81f9664a389daac260d22aa522f",
}


@pytest.mark.parametrize("name", GEN_DATA_DIGESTS)
def test_gen_data_outputs_are_pinned(case_file, tmp_path, capsys, name):
    """gen-data's files, which a change to the draws, the labels or the
    writers is expected to leave byte-identical.  The labels rest on the
    bits of the feasibility kernel's matmul.  Every local draw is feasible
    on case6 with or without line limits, so those two files match.  A
    change that moves a digest must say why in CHANGES.md."""
    kind, fmt, *lines = name.split("-")
    out = tmp_path / "data"
    assert main(["gen-data", kind, "--case", case_file, *(["--lines"] * bool(lines)),
                 "--seed", "5", "--count", "40", "--steps", "10", "--format", fmt,
                 "--out", str(out)]) == 0
    rows = 40 * 9 if kind == "scaled" else 40 if kind == "local" else 10 * 6
    assert capsys.readouterr().err.endswith(f"{rows} points written to {out}\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DATA_DIGESTS[name]


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

    def test_singular_base_problem_exit_code(self, tmp_path, capsys):
        """x3 and x5 of the two-parameter problem lose their quadratic
        costs: x3 - x5 keeps A_e x fixed at no curvature, so the base KKT
        matrix is singular."""
        problem = json.loads(bundled_problem_json())
        problem["Q"][2][2] = problem["Q"][4][4] = 0.0
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(problem))
        assert main([
            "discover", "--problem", str(path), "--theta0", "100,100", "--steps", "20",
        ]) == EXIT_CODES["format"]
        assert "base KKT matrix" in capsys.readouterr().err

    def test_non_finite_problem_exit_code(self, tmp_path, capsys):
        problem = json.loads(bundled_problem_json())
        problem["A_e"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(problem))  # writes the non-standard NaN token
        assert main([
            "discover", "--problem", str(path), "--theta0", "100,100", "--steps", "20",
        ]) == EXIT_CODES["format"]
        assert "A_e has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--steps", "1"], "--steps"),
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--extent", "5"], "--extent"),
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--tol", "nan"], "--tol"),
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--tol", "inf"], "--tol"),
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--tol=-1"], "--tol"),
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--pattern", "scaled",
      "--scales", "2,1", "--extent", "100,100", "--steps", "5"], "--scales"),
    (["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--pattern", "scaled",
      "--scales", "1,1", "--extent", "100,100", "--steps", "5"], "--scales"),
    (["gen-data", "local", "--case", "CASE", "--count", "0"], "--count"),
    (["gen-data", "scaled", "--case", "CASE", "--count", "0"], "--count"),
    (["gen-data", "scaled", "--case", "CASE", "--count", "2", "--scales", "2,1"], "--scales"),
    (["gen-data", "scaled", "--case", "CASE", "--count", "3", "--scales", "1,1,1.5"], "--scales"),
    (["gen-data", "extreme", "--case", "CASE", "--steps", "0"], "--steps"),
    (["gen-data", "local", "--case", "MISSING", "--count", "3", "--seed", "-1"], "--seed"),
    (["gen-data", "scaled", "--case", "MISSING", "--seed", str(2 ** 128)], "--seed"),
], ids=["discover-steps", "discover-extent-length", "discover-tol-nan",
        "discover-tol-inf", "discover-tol-negative", "discover-scales-order",
        "discover-scales-repeated", "local-count", "scaled-count", "gen-data-scales-order",
        "gen-data-scales-repeated", "extreme-steps",
        "local-seed-negative", "scaled-seed-too-large"])
def test_bad_argument_is_usage_error(
    problem_file, case_file, tmp_path, capsys, monkeypatch, argv, flag
):
    """A bad argument exits 2 naming its flag, before any feasibility
    bisection and before any output is written.  A MISSING gen-data case
    does not exist, so only a check made before the case is read can give
    exit 2."""
    import cfqp.cli

    def no_bisection(*args):
        raise AssertionError("feasible_extents called before the arguments were checked")

    monkeypatch.setattr(cfqp.cli, "feasible_extents", no_bisection)
    out = tmp_path / "out"
    missing = str(tmp_path / "none.json")
    inputs = {"PROBLEM": problem_file, "CASE": case_file, "MISSING": missing}
    argv = [inputs.get(a, a) for a in argv] + ["--out", str(out)]
    assert main(argv) == EXIT_CODES["usage"]
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_discover_closes_its_log_when_discovery_raises(problem_file, tmp_path):
    """An infeasible theta0 makes discover raise after --log is opened;
    the file is closed all the same, so freeing the run's objects warns
    of no unclosed file."""
    log = tmp_path / "l.jsonl"
    assert main([
        "discover", "--problem", problem_file, "--theta0", "5000,5000",
        "--extent", "10,10", "--log", str(log),
    ]) == EXIT_CODES["infeasible"]
    gc.collect()
    assert log.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["discover", "--problem", "PROBLEM", "--theta0", "100,100", "--steps", "20"],
    ["gen-data", "scaled", "--case", "CASE", "--lines", "--count", "2000", "--scales", "1,2",
     "--seed", "1"],
    ["kkt-report", "--problem", "PROBLEM", "--model", "MODEL", "--dataset", "DATA"],
    ["import-case", "--matpower", "MATPOWER"],
], ids=["discover", "gen-data", "kkt-report", "import-case"])
def test_unwritable_out_fails_before_any_work(
    problem_file, case_file, model_2d_file, tmp_path, monkeypatch, argv
):
    """Every command opens --out before its work: a path in a missing
    directory exits 1 with nothing computed and nothing written."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    for module, name in ((cfqp.cli, "discover"), (cfqp.cli, "forward_chunks"),
                         (cfqp.cli.dcopf, "scaled_dataset"), (cfqp.cli.dcopf, "parse_matpower")):
        monkeypatch.setattr(module, name, no_work)
    data, matpower = tmp_path / "data.csv", tmp_path / "tiny.m"
    data.write_text("100,100\n")
    matpower.write_text(MATPOWER_TEXT)
    inputs = {"PROBLEM": problem_file, "CASE": case_file, "MODEL": model_2d_file,
              "DATA": str(data), "MATPOWER": str(matpower)}
    argv = [inputs.get(a, a) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "nodir" / "out")]) == 1
    assert not (tmp_path / "nodir").exists()


def test_failed_discover_leaves_no_file(problem_file, tmp_path, monkeypatch):
    """A discover that exits 7 leaves neither the model nor a temporary file."""
    def unresolvable(*args, **kwargs):
        raise UnresolvableTransition("no transition found")

    monkeypatch.setattr(cfqp.cli, "discover", unresolvable)
    before = set(tmp_path.iterdir())
    assert main(["discover", "--problem", problem_file, "--theta0", "100,100",
                 "--steps", "20", "--out", str(tmp_path / "m.json")]) == EXIT_CODES["transition"]
    assert set(tmp_path.iterdir()) == before


def test_unresolvable_discover_exits_7(problem_file, tmp_path, capsys):
    """From (700, 100), point 2 of direction 2 (the -theta1 sweep) has no
    single transition that explains its violation: strict discover exits 7
    with one error line naming it, and leaves no model file."""
    before = set(tmp_path.iterdir())
    assert main(["discover", "--problem", problem_file, "--theta0", "700,100",
                 "--steps", "200", "--out", str(tmp_path / "m.json")]) == EXIT_CODES["transition"]
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("direction 2 point 2 (no_transition)")
    assert set(tmp_path.iterdir()) == before


def test_kkt_report_without_feasible_rows_writes_header_only(
    problem_file, model_2d_file, tmp_path, capsys
):
    data, out = tmp_path / "data.jsonl", tmp_path / "kkt.csv"
    data.write_text('{"theta_e": [100, 100], "feasible": false}\n')
    assert main(["kkt-report", "--problem", problem_file, "--model", model_2d_file,
                 "--dataset", str(data), "--out", str(out)]) == 0
    assert "empty dataset" in capsys.readouterr().err
    assert out.read_bytes() == b"condition,mean,worst\r\n"
