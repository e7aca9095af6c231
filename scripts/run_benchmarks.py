#!/usr/bin/env python3
"""Cross-validated comparison of all five classifiers on standard datasets.

Writes one report CSV and one summary JSON per dataset into --out and
prints a macro-F1 table.  The quick roster runs in a couple of minutes;
--full adds the larger and higher-dimensional datasets.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tdabc import datasets as ds
from tdabc.evaluation import FoldPlan, default_classifiers, run_experiment
from tdabc.rips import RipsConfig

QUICK = ("circles", "moons", "iris", "wine")
FULL = QUICK + ("swissroll", "normal", "cancer")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/benchmarks", type=Path)
    parser.add_argument("--seed", default=0, type=int)
    parser.add_argument("--folds", default=10, type=int)
    parser.add_argument("--repeats", default=5, type=int)
    parser.add_argument("--budget", default=150_000, type=int)
    parser.add_argument(
        "--max-edge",
        default=None,
        type=float,
        help="edge cap for the complex (default: data-driven); caps near the "
        "within-class point spacing keep propagation local",
    )
    parser.add_argument("--full", action="store_true", help="include the slow datasets")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    roster = default_classifiers()
    names = [spec.name for spec in roster]
    plan = FoldPlan(folds=args.folds, repeats=args.repeats, seed=args.seed)
    rips = RipsConfig(max_dim=3, budget=args.budget, max_edge=args.max_edge)

    print(f"{'dataset':<12}" + "".join(f"{n:>10}" for n in names))
    for dataset_name in FULL if args.full else QUICK:
        data = ds.resolve(dataset_name, seed=args.seed)
        report = run_experiment(data, roster, plan, rips=rips)
        report.write_csv(args.out / f"{data.name}_report.csv")
        report.write_json(args.out / f"{data.name}_summary.json")
        scores = [report.mean_metric(n, "macro", "f1") for n in names]
        print(f"{dataset_name:<12}" + "".join(f"{s:>10.4f}" for s in scores))
    print(f"\nreports under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
