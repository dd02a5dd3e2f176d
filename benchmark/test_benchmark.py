"""Self-test of the benchmark (not part of the program's test suite):

    python3 -m pytest benchmark/test_benchmark.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("cli", "model", "oracle", "core", "discovery", "dcopf")


def tiny(name, work_dir, **kwargs):
    """A small instance of a workload (discover-fixtures has fixed inputs)."""
    sizes = {
        "predict-renewable": dict(hours=2, samples=60, forward_calls=50,
                                  oracle_samples=5, reference_samples=3),
        "discover-fixtures": {},
        "label-scaled": dict(per_scale=2),
    }
    return workloads.WORKLOADS[name](3, work_dir, **sizes[name], **kwargs)


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_spec_names_the_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result = workloads.measure(tiny(name, tmp_path), seconds=0, trace=trace)["result"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = values(result)
    assert all(math.isfinite(v) for v in got.values())
    if trace:
        # wrapped layers' self times plus the unwrapped rest make the wall time
        parts = sum(got[f"{m}.self_s"] for m in MODULES) + got["trace.unwrapped_s"]
        assert parts == pytest.approx(got["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in got.values())


def test_corrupted_model_drives_fail_share_above_zero(tmp_path):
    workload = tiny("predict-renewable", tmp_path, corrupt=True)
    result = workloads.measure(workload, seconds=0, trace=True)["result"]
    assert not result["correct"]
    assert result["failed"] > 0
    assert values(result)["fail_share"] > 0


def test_label_check_counts_lp_disagreements_and_revived_rays():
    T, F = True, False
    assert workloads.label_failures([[T, T, F], [T, F, F], [F, F, F]]) == 0
    # ray 1 becomes feasible again at the third scale; ray 2 disagrees with the LP
    assert workloads.label_failures([[T, T, F], [T, F, None], [F, T, F]]) == 2


def test_load_clock_takes_its_kernel_runs_out_of_the_call(monkeypatch):
    # a 40 ms kernel, so that most of a 0.3 s call is spent in its runs
    monkeypatch.setattr(calibration, "reference_kernel", lambda: time.sleep(0.04))
    clock = calibration.LoadClock()
    t0 = time.perf_counter()
    _, seconds, kernel_s = clock.time(time.sleep, 0.3)
    wall = time.perf_counter() - t0
    (b0, b1), *inside, (a0, a1) = clock.spans  # runs before, during and after
    in_kernel = sum(e - s for s, e in inside)
    assert len(inside) >= 3
    assert seconds == pytest.approx(wall - (b1 - b0) - (a1 - a0) - in_kernel, abs=0.01)
    assert seconds < 0.3 - 0.1  # a clock that kept its kernel runs would read >= 0.3 s
    assert kernel_s == pytest.approx(
        sum(e - s for s, e in clock.spans) / len(clock.spans))
    assert calibration.corrected(seconds, kernel_s) == pytest.approx(
        seconds / kernel_s * calibration.KERNEL_REF_S)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "label-scaled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
