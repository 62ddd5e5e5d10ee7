#!/usr/bin/env python3
"""Interpretability experiment on the static-truth environment.

Trains every method over a seed grid, then writes:
  weights.csv        per (method, seed, stage, feature) coefficient
  clipped.csv        pooled 5% clipped-weight counts per method
  weight_error.csv   mean |theta_hat - theta*| per method
  contributions.csv  contribution proportions of the spectral cut-off model
"""
import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from sblq.envs import A2_ENV, generate_trajectories, make_env
from sblq.data import split
from sblq.interpret import clipped_weights, contribution_proportions
from sblq.learner import train

METHODS = ("ls", "lasso", "tikhonov", "gradient-descent", "cutoff")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/interpretability")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--n", type=int, default=1000)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    weight_rows = []
    werr = {m: [] for m in METHODS}
    last_cutoff = None
    for seed in range(args.seeds):
        env = make_env(A2_ENV, seed=seed)
        dataset, truth = generate_trajectories(env, args.n, seed=seed)
        train_set, _ = split(dataset, 0.5, seed)
        truth_vec = truth.theta_star[0]
        for method in METHODS:
            bundle, _ = train(train_set, method, seed=seed)
            weights = bundle.theta_matrix()
            werr[method].append(float(np.mean(np.abs(weights - truth_vec))))
            for t in range(weights.shape[0]):
                for j in range(weights.shape[1]):
                    entries.append((method, j, t + 1, float(weights[t, j])))
                    weight_rows.append((method, seed, t + 1, j, float(weights[t, j])))
            if method == "cutoff":
                last_cutoff = bundle

    flags = clipped_weights(entries, pct=0.05)
    counts = {m: 0 for m in METHODS}
    for entry, flag in zip(entries, flags):
        if flag:
            counts[entry[0]] += 1

    with open(out / "weights.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed", "stage", "feature", "value"])
        w.writerows(weight_rows)
    with open(out / "clipped.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "clipped_count"])
        w.writerows(sorted(counts.items()))
    with open(out / "weight_error.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "mean_weight_error"])
        for m in METHODS:
            w.writerow([m, float(np.mean(werr[m]))])
    report = contribution_proportions(last_cutoff)
    with open(out / "contributions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["feature", "proportion", "rank"])
        rank_of = {int(u): pos for pos, u in enumerate(report.ranking)}
        for j, label in enumerate(report.labels):
            w.writerow([label, float(report.proportions[j]), rank_of[j]])

    print("clipped counts:", counts)
    print("mean weight error:", {m: round(float(np.mean(werr[m])), 4) for m in METHODS})
    return 0


if __name__ == "__main__":
    sys.exit(main())
