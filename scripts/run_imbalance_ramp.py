#!/usr/bin/env python3
"""Minority-class F1 across the 16-step imbalance ramp.

Each step fixes 50 positive points and adds 50·step negatives drawn from
a wider distribution, so step 16 is a 16:1 imbalance.  Propagation
variants use an explicit edge cap (default 0.3) that keeps neighborhoods
inside the tight positive core; see README for the scale discussion.

Writes per-seed curves to --out and prints the minority F1 per step
averaged over seeds.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from tdabc.datasets import make_imbalance_ramp
from tdabc.evaluation import FoldPlan, default_classifiers, run_experiment
from tdabc.rips import RipsConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/ramp", type=Path)
    parser.add_argument("--seeds", default=5, type=int)
    parser.add_argument("--folds", default=5, type=int)
    parser.add_argument("--repeats", default=3, type=int)
    parser.add_argument("--max-edge", default=0.3, type=float)
    parser.add_argument("--steps", default="1-16", help="inclusive range, e.g. 12-16")
    args = parser.parse_args(argv)

    lo, _, hi = args.steps.partition("-")
    steps = list(range(int(lo), int(hi or lo) + 1))
    args.out.mkdir(parents=True, exist_ok=True)
    roster = default_classifiers()
    names = [spec.name for spec in roster]
    rips = RipsConfig(max_dim=2, max_edge=args.max_edge, budget=400_000)

    curves: dict[tuple[int, str], list[float]] = {}
    with (args.out / "minority_f1.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "step"] + names)
        for seed in range(args.seeds):
            for step in steps:
                data = make_imbalance_ramp(step, seed=seed)
                plan = FoldPlan(folds=args.folds, repeats=args.repeats, seed=seed)
                report = run_experiment(data, roster, plan, rips=rips)
                row = [report.minority_mean(n, "f1") for n in names]
                writer.writerow([seed, step] + [f"{v!r}" for v in row])
                for n, v in zip(names, row):
                    curves.setdefault((step, n), []).append(v)

    print(f"{'step':<6}" + "".join(f"{n:>10}" for n in names))
    for step in steps:
        means = [float(np.mean(curves[(step, n)])) for n in names]
        print(f"{step:<6}" + "".join(f"{m:>10.4f}" for m in means))
    print(f"\nper-seed curves in {args.out / 'minority_f1.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
