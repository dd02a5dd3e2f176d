"""The example scripts run end to end.  They import the public API, so a
renamed or deleted name breaks them; this runs each one in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["discover_two_parameter.py"],
    ["dcopf_experiments.py", "precision"],
    ["dcopf_experiments.py", "renewable"],
    ["dcopf_experiments.py", "scaled"],
], ids=["discover_two_parameter", "dcopf_precision", "dcopf_renewable", "dcopf_scaled"])
def test_script_exits_0(argv, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if argv[0] == "discover_two_parameter.py":  # every spot check, off the sweeps too
        kkts = [float(line.rsplit("kkt = ", 1)[1]) for line in result.stdout.splitlines()
                if "kkt = " in line]
        assert len(kkts) == 6 and max(kkts) <= 1e-8, kkts
    if argv[1:] == ["scaled"]:  # seed 7: criterion 7's survival counts, all located
        assert "scale 1.125:  113\n" in result.stdout and "scale 1.875:    2\n" in result.stdout
        assert "433 feasible points inside discovered regions" in result.stdout
        assert "0 feasible points in undiscovered regions" in result.stdout
