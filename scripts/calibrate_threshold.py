#!/usr/bin/env python3
"""Calibrate the balancing-threshold multiplier per filter.

Sweeps c_ada on the performance benchmark and reports, per value, the median
selected lambda and the resulting parameter and policy gaps.  The shipped
defaults in sblq.learner.FILTER_PRESETS are the stable points of this sweep:
small enough that the scan actually stops mid-grid, large enough that
early noise spikes near the grid floor never trip the rule.
"""
import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from sblq.envs import A1_ENV
from sblq.experiments import build_world, method_cell

DEFAULT_GRID = (1e-8, 3e-8, 5e-8, 1e-7, 3e-7, 5e-7, 1e-6, 3e-6, 1e-5)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/calibration")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--n", type=int, default=1000)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    worlds = {seed: build_world(A1_ENV, seed, args.n, 0.5) for seed in range(args.seeds)}
    rows = []
    for kind in ("tikhonov", "gradient-descent", "cutoff"):
        for c_ada in DEFAULT_GRID:
            cells = [method_cell(world, kind, seed, {"c_ada": c_ada})
                     for seed, world in worlds.items()]
            pgaps = [c.metrics.parameter_gap for c in cells]
            lams = [float(np.median([s.lambda_selected for s in c.bundle.stages])) for c in cells]
            rows.append((kind, c_ada, float(np.mean(lams)),
                         float(np.mean(pgaps)), float(np.max(pgaps)),
                         float(np.mean([c.metrics.policy_gap for c in cells]))))
            print(f"{kind:17s} c_ada={c_ada:.0e} med_lambda={rows[-1][2]:.4f} "
                  f"pgap={rows[-1][3]:7.3f} (max {rows[-1][4]:7.3f}) ygap={rows[-1][5]:.4f}")

    with open(out / "calibration.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["filter", "c_ada", "median_lambda", "mean_parameter_gap",
                    "max_parameter_gap", "mean_policy_gap"])
        w.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
