#!/usr/bin/env python3
"""Record the numbers ``tests/test_golden.py`` checks the package against.

    PYTHONPATH=src python3 tests/record_golden.py

For each case of a small matrix (a1 world 0 with the four non-lasso
methods, a2 seeds 0 and 1 with all five, 100 trajectories each) it trains
the method under its default settings, as ``sblq train`` does, and keeps
every stage's (lambda, k) and theta with the ``eval --truth`` metrics of the
model on the same dataset (direct value estimate, no simulator).  For a1
world 0 and a2 seed 0 it also keeps the ``report --topk`` curve of a cutoff
model, run through the files of ``sblq gen`` and ``sblq train`` with the
env's rollouts, so the file loaders are on the refit path.  For a2 seeds 0
and 1 it keeps every row of ``sblq compare --seeds 2`` but its wall-clock
column.  It writes them to tests/golden.json with the numpy version they
were recorded under.
Re-record only in a change that means to alter these numbers, and say in
CHANGES.md which of them moved and why.
"""
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from sblq.cli import main
from sblq.config import METHODS
from sblq.envs import A1_ENV, A2_ENV
from sblq.experiments import build_world, method_cell

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
N_TRAJECTORIES = 100
# (preset, seed, methods)
CASES = (
    ("a1", 0, tuple(m for m in METHODS if m != "lasso")),
    ("a2", 0, METHODS),
    ("a2", 1, METHODS),
)
PRESETS = {"a1": A1_ENV, "a2": A2_ENV}
# (preset, seed, top-k sizes): k = 16 exceeds a2's 15 features, so a2 keeps all
TOPK_CASES = (
    ("a1", 0, (4, 16)),
    ("a2", 0, (4, 15)),
)
CLI_PRESETS = {"a1": "a1-performance", "a2": "a2-interpretability"}
# (preset, first seed, seeds, rollout episodes per cell)
COMPARE_CASE = ("a2", 0, 2, 20)


def golden_values() -> dict:
    """Per-stage (lambda, k, theta) and eval metrics of every case, keyed
    ``preset/seed/method``."""
    values = {}
    for preset, seed, methods in CASES:
        world = build_world(PRESETS[preset], seed, N_TRAJECTORIES)
        for method in methods:
            cell = method_cell(world, method, seed)
            values[f"{preset}/{seed}/{method}"] = {
                "stages": [{"lambda": s.lambda_selected, "k": s.k_selected,
                            "theta": s.theta.tolist()} for s in cell.bundle.stages],
                "metrics": cell.metrics.as_dict(),
            }
    for preset, seed, ks in TOPK_CASES:
        values[f"{preset}/{seed}/topk"] = topk_curve(preset, seed, ks)
    preset, seed, seeds, episodes = COMPARE_CASE
    values[f"{preset}/{seed}/compare"] = compare_rows(preset, seed, seeds, episodes)
    return values


def topk_curve(preset: str, seed: int, ks) -> dict:
    """The ``report --topk`` rewards of a cutoff model trained by the CLI on
    ``sblq gen`` files, keyed by k."""
    common = ["--preset", CLI_PRESETS[preset], "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        data, run = Path(tmp) / "data", Path(tmp) / "run"
        for argv in (["gen", "--n", str(N_TRAJECTORIES), "--out", str(data)],
                     ["train", "--dataset", str(data), "--method", "cutoff", "--out", str(run)],
                     ["report", "--model", str(run / "model.json"), "--dataset", str(data),
                      "--env", str(data / "env.json"), "--topk", ",".join(map(str, ks)),
                      "--out", str(run)]):
            if main(argv[:1] + common + argv[1:]) != 0:
                raise RuntimeError(f"sblq {' '.join(argv)} failed")
        rows = (run / "topk.csv").read_text().splitlines()[1:]
    return {k: float(v) for k, v in (row.split(",") for row in rows)}


def compare_rows(preset: str, seed: int, seeds: int, episodes: int) -> list:
    """The rows of ``sblq compare`` in file order, each (method, seed,
    parameter_gap, policy_gap, reward): every column but wall_clock_s."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["compare", "--preset", CLI_PRESETS[preset], "--seed", str(seed),
                "--n", str(N_TRAJECTORIES), "--seeds", str(seeds),
                "--n-episodes", str(episodes), "--out", tmp]
        if main(argv) != 0:
            raise RuntimeError(f"sblq {' '.join(argv)} failed")
        rows = (Path(tmp) / "compare.csv").read_text().splitlines()[1:]
    return [[method, row_seed, *map(float, values[:-1])]
            for method, row_seed, *values in (row.split(",") for row in rows)]


def write_golden():
    cases = golden_values()
    head = {"recorded_with": {"numpy": np.__version__, "python": platform.python_version()},
            "n_trajectories": N_TRAJECTORIES}
    # one line per case, so that a re-recording shows which cases moved
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(cases.items())]
    GOLDEN_PATH.write_text(json.dumps(head)[:-1] + ', "cases": {\n' + ",\n".join(lines)
                           + "\n}}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    write_golden()
