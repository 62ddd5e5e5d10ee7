#!/usr/bin/env python3
"""Record the numbers ``tests/test_golden.py`` checks the package against.

    PYTHONPATH=src python3 tests/record_golden.py

For each case of a small matrix (a1 world 0 with the four non-lasso
methods, a2 seeds 0 and 1 with all five, 100 trajectories each) it trains
the method under its default settings, as ``sblq train`` does, and keeps
every stage's (lambda, k) and theta with the ``eval --truth`` metrics of the
model on the same dataset (direct value estimate, no simulator).  It writes
them to tests/golden.json with the numpy version they were recorded under.
Re-record only in a change that means to alter these numbers, and say in
CHANGES.md which of them moved and why.
"""
import json
import platform
from pathlib import Path

import numpy as np

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
    return values


def main():
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
    main()
