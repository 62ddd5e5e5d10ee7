#!/usr/bin/env python3
"""Parameter gap as a function of the trajectory count.

Uses the benchmark generative law with a user pool large enough that the
feature span is full rank, so the gap is estimation-dominated (the same
curve as acceptance criterion 4).  Writes rate.csv (n, mean gap, sd) and
prints the log-log slope.
"""
import argparse
import csv
import sys
from pathlib import Path

from sblq.experiments import rate_curve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/rate")
    parser.add_argument("--method", default="cutoff",
                        choices=["tikhonov", "gradient-descent", "cutoff"])
    parser.add_argument("--sizes", default="250,500,1000")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sizes = [int(s) for s in args.sizes.split(",")]
    means, sds, slope = rate_curve(args.method, sizes, range(args.seed, args.seed + args.seeds))
    rows = list(zip(sizes, means, sds))
    for n, mean, sd in rows:
        print(f"n={n}: parameter gap {mean:.4f} +- {sd:.4f}")
    print(f"log-log slope: {slope:.3f}")
    with open(out / "rate.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "mean_parameter_gap", "sd"])
        w.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
