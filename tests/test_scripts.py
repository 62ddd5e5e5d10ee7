"""Every script under scripts/ imports against the current package API and
runs its experiment end to end.

Running a script with ``--help`` executes its imports and argument parser;
running it at a tiny size also executes the shared experiment functions and
its CSV writers, so a script that drifts from ``sblq.experiments`` fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))

# script -> (tiny-size arguments, {output CSV: header line})
TINY_RUNS = {
    "calibrate_threshold.py": (
        ["--seeds", "2", "--n", "40"],
        {"calibration.csv": "filter,c_ada,median_lambda,mean_parameter_gap,"
                            "max_parameter_gap,mean_policy_gap"}),
    "run_interpretability.py": (
        ["--seeds", "2", "--n", "40"],
        {"weights.csv": "method,seed,stage,feature,value",
         "clipped.csv": "pool,method,clipped_count",
         "weight_error.csv": "method,mean_weight_error",
         "contributions.csv": "feature,proportion,rank"}),
    "run_rate_study.py": (
        ["--sizes", "40,80", "--seeds", "2"],
        {"rate.csv": "n,mean_parameter_gap,sd"}),
}


def run_script(script, *args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_scripts_found():
    assert SCRIPTS
    assert sorted(TINY_RUNS) == [p.name for p in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_at_tiny_size(script, tmp_path):
    args, outputs = TINY_RUNS[script.name]
    proc = run_script(script, *args, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name, header in outputs.items():
        lines = (tmp_path / "out" / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
