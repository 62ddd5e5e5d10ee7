#!/usr/bin/env python3
"""Interpretability experiment on the static-truth environment.

Trains every method over a seed grid and, as acceptance criterion 6 does,
pools each shrinking spectral filter (tikhonov, gradient-descent) with lasso
alone.  Writes:
  weights.csv        per (method, seed, stage, feature) coefficient
  clipped.csv        5% clipped-weight counts per (pool, method)
  weight_error.csv   mean |theta_hat - theta*| per method
  contributions.csv  contribution proportions of the spectral cut-off model
"""
import argparse
import csv
import sys
from pathlib import Path

from sblq.config import METHODS
from sblq.experiments import interpretability_comparison
from sblq.interpret import contribution_proportions


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/interpretability")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--n", type=int, default=1000)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    bundles, clipped, weight_error = interpretability_comparison(range(args.seeds), args.n,
                                                                METHODS)
    write_csv(out / "weights.csv", ["method", "seed", "stage", "feature", "value"],
              [(method, seed, t + 1, j, float(value))
               for (method, seed), bundle in bundles.items()
               for t, row in enumerate(bundle.theta_matrix())
               for j, value in enumerate(row)])
    write_csv(out / "clipped.csv", ["pool", "method", "clipped_count"],
              [(pool, method, count) for pool, counts in clipped.items()
               for method, count in counts.items()])
    write_csv(out / "weight_error.csv", ["method", "mean_weight_error"],
              weight_error.items())
    report = contribution_proportions(bundles["cutoff", args.seeds - 1])
    rank_of = {int(u): pos for pos, u in enumerate(report.ranking)}
    write_csv(out / "contributions.csv", ["feature", "proportion", "rank"],
              [(label, float(report.proportions[j]), rank_of[j])
               for j, label in enumerate(report.labels)])

    print("clipped counts:", clipped)
    print("mean weight error:", {m: round(v, 4) for m, v in weight_error.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
