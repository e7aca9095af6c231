"""Command line entry point: generate, persistence, classify, evaluate.

Options resolve with flag > config-file > default precedence.  The config
file is a flat JSON object whose keys are the long flag names with
underscores.  TDABC_OUT_DIR sets where outputs land when --out is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datasets as ds
from .baselines import KnnConfig, knn_predict_all
from .classifier import AssociationTable, classify_all
from .errors import InvalidConfig, TdabcError
from .evaluation import (
    EvaluationReport,
    FoldPlan,
    TdabcSpec,
    default_classifiers,
    run_experiment,
    write_ramp_csv,
)
from .persistence import boundary_reduce, write_diagram_csv, write_diagram_json
from .rips import RipsConfig, build_rips, pairwise_distances
from .selection import EPSILON_MODES, RECOVERY_MODES, SELECTORS, SelectionPolicy

_RIPS, _POLICY, _PLAN, _KNN = RipsConfig(), SelectionPolicy(), FoldPlan(), KnnConfig()

_DEFAULTS = {
    "out": None,
    "seed": 0,
    "label_column": "label",
    "max_dim": _RIPS.max_dim,
    "max_edge": _RIPS.max_edge,
    "metric": _RIPS.metric,
    "budget": _RIPS.budget,
    "selector": _POLICY.selector,
    "epsilon_mode": _POLICY.epsilon_mode,
    "recovery": _POLICY.recovery,
    "baseline": None,
    "k": _KNN.k,
    "folds": _PLAN.folds,
    "repeats": _PLAN.repeats,
    "classifiers": ",".join(spec.name for spec in default_classifiers()),
    "test_fraction": 0.2,
    "test_indices": None,
    "step": None,
    "jobs": 1,
}


def _merge_options(args: argparse.Namespace) -> dict:
    file_conf = {}
    if getattr(args, "config", None):
        file_conf = json.loads(Path(args.config).read_text())
        if not isinstance(file_conf, dict):
            raise TdabcError("config file must hold a JSON object")
    merged = {}
    for key, default in _DEFAULTS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_conf:
            merged[key] = file_conf[key]
        else:
            merged[key] = default
    return merged


def _out_dir(opts: dict) -> Path:
    out = opts["out"] or os.environ.get("TDABC_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _rips_config(opts: dict) -> RipsConfig:
    max_edge = opts["max_edge"]
    if isinstance(max_edge, str):
        try:
            max_edge = float(max_edge)
        except ValueError:
            raise InvalidConfig(
                f"--max-edge must be a number or 'inf', got {max_edge!r}"
            ) from None
    return RipsConfig(
        max_dim=int(opts["max_dim"]),
        max_edge=max_edge,
        metric=opts["metric"],
        budget=int(opts["budget"]),
    )


def _dataset(name: str, opts: dict) -> ds.LabeledDataset:
    return ds.resolve(
        name, seed=int(opts["seed"]), step=opts["step"], label_column=opts["label_column"]
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    data = _dataset(args.dataset, opts)
    out = _out_dir(opts)
    csv_path = out / f"{data.name}.csv"
    ds.save_csv(data, csv_path)
    (out / f"{data.name}.spec.json").write_text(
        json.dumps(data.spec, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {csv_path} ({len(data)} points, {data.n_classes} classes)")
    return 0


def _cmd_persistence(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    data = _dataset(args.dataset, opts)
    dist = pairwise_distances(data.points, opts["metric"])
    complex_ = build_rips(dist, _rips_config(opts))
    diagram = boundary_reduce(complex_)
    out = _out_dir(opts)
    write_diagram_csv(diagram, out / f"{data.name}.diagram.csv")
    write_diagram_json(diagram, out / f"{data.name}.diagram.json")
    bars = ["dim,birth,death,length"]
    maxf = diagram.max_filtration
    for iv in diagram.intervals:
        death = min(iv.death, maxf)
        bars.append(f"{iv.dim},{iv.birth!r},{death!r},{death - iv.birth!r}")
    (out / f"{data.name}.barcode.csv").write_text("\n".join(bars) + "\n")
    print(
        f"{len(complex_)} simplices, {len(diagram.intervals)} intervals, "
        f"max filtration {maxf!r}"
    )
    return 0


def _split_test_vertices(data: ds.LabeledDataset, opts: dict) -> frozenset[int]:
    if opts["test_indices"]:
        chosen = set()
        for tok in str(opts["test_indices"]).split(","):
            try:
                v = int(tok)
            except ValueError:
                raise InvalidConfig(f"--test-indices: {tok!r} is not a vertex id") from None
            if not 0 <= v < len(data):
                raise InvalidConfig(f"--test-indices: vertex {v} is outside [0, {len(data)})")
            chosen.add(v)
        return frozenset(chosen)
    fraction = float(opts["test_fraction"])
    rng = np.random.default_rng([int(opts["seed"]), 1])
    chosen: list[int] = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        rng.shuffle(members)
        take = max(1, int(round(fraction * len(members))))
        chosen.extend(int(v) for v in members[:take])
    return frozenset(chosen)


def _cmd_classify(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    data = _dataset(args.dataset, opts)
    test = _split_test_vertices(data, opts)
    table = AssociationTable(
        training={int(v): int(data.labels[v]) for v in range(len(data)) if v not in test},
        test_vertices=test,
        n_classes=data.n_classes,
    )
    dist = pairwise_distances(data.points, opts["metric"])
    if opts["baseline"]:
        config = KnnConfig(k=int(opts["k"]), weighted=(opts["baseline"] == "wknn"))
        preds = knn_predict_all(dist, table, config, seed=int(opts["seed"]))
    else:
        complex_ = build_rips(dist, _rips_config(opts))
        diagram = boundary_reduce(complex_)
        policy = SelectionPolicy(
            selector=opts["selector"],
            epsilon_mode=opts["epsilon_mode"],
            recovery=opts["recovery"],
            rng_seed=int(opts["seed"]),
        )
        preds = classify_all(complex_, diagram, table, policy, dist)
    out = _out_dir(opts)
    prob_header = ",".join(f"p_{name}" for name in data.class_names)
    lines = [f"vertex,predicted,provenance,{prob_header}"]
    for p in preds:
        probs = ",".join(repr(x) for x in p.probability)
        lines.append(f"{p.vertex},{data.class_names[p.label]},{p.provenance},{probs}")
    csv_path = out / f"{data.name}.predictions.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    correct = sum(1 for p in preds if p.label == int(data.labels[p.vertex]))
    payload = {
        "dataset": data.name,
        "n_test": len(preds),
        "accuracy": correct / len(preds) if preds else math.nan,
        "provenance_counts": {
            prov: sum(1 for p in preds if p.provenance == prov)
            for prov in sorted({p.provenance for p in preds})
        },
    }
    (out / f"{data.name}.predictions.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {csv_path} (accuracy {payload['accuracy']:.3f})")
    return 0


def _parse_roster(opts: dict) -> tuple:
    """Named specs from ``default_classifiers()``, with the run's shared settings."""
    table = {spec.name: spec for spec in default_classifiers()}
    tokens = [tok.strip() for tok in str(opts["classifiers"]).split(",") if tok.strip()]
    roster = []
    for token in tokens or table:
        if token not in table:
            raise TdabcError(f"unknown classifier {token!r}")
        spec = table[token]
        if isinstance(spec, TdabcSpec):
            spec = replace(spec, epsilon_mode=opts["epsilon_mode"], recovery=opts["recovery"])
        else:
            spec = replace(spec, k=int(opts["k"]))
        roster.append(spec)
    return tuple(roster)


def _evaluate_one(data: ds.LabeledDataset, opts: dict) -> EvaluationReport:
    plan = FoldPlan(
        folds=int(opts["folds"]), repeats=int(opts["repeats"]), seed=int(opts["seed"])
    )
    return run_experiment(data, _parse_roster(opts), plan, rips=_rips_config(opts))


def _ramp_worker(payload: tuple[int, dict]) -> tuple[int, EvaluationReport]:
    step, opts = payload
    data = ds.resolve("ramp", seed=int(opts["seed"]), step=step)
    return step, _evaluate_one(data, opts)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    out = _out_dir(opts)
    if args.ramp:
        steps = list(range(1, 17))
        jobs = int(opts["jobs"])
        payloads = [(step, opts) for step in steps]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = dict(pool.map(_ramp_worker, payloads))
        else:
            results = dict(map(_ramp_worker, payloads))
        write_ramp_csv(results, out / "ramp_curves.csv")
        summary = {str(step): results[step].summary() for step in steps}
        failures = sum(len(results[step].failures) for step in steps)
        (out / "ramp_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out / 'ramp_curves.csv'} ({failures} fold failures)")
        return 0 if failures == 0 else 1
    data = _dataset(args.dataset, opts)
    report = _evaluate_one(data, opts)
    report.write_csv(out / f"{data.name}_report.csv")
    report.write_json(out / f"{data.name}_summary.json")
    print(
        f"wrote {out / (data.name + '_report.csv')} "
        f"({len(report.records)} records, {len(report.failures)} fold failures)"
    )
    return 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdabc",
        description="Label propagation over persistence-selected Rips subcomplexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, dataset_required: bool = True) -> None:
        p.add_argument("--dataset", required=dataset_required,
                       help="generator name, bundled name, or CSV path")
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--out", help="output directory (or TDABC_OUT_DIR)")
        p.add_argument("--seed", type=int)
        p.add_argument("--label-column", dest="label_column")
        p.add_argument("--step", type=int, help="ramp step, 1 to 16")

    def rips_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-dim", dest="max_dim", type=int)
        p.add_argument("--max-edge", dest="max_edge",
                       help="edge cap, a number or 'inf' (default: data-driven)")
        p.add_argument("--metric", choices=("euclidean", "manhattan", "cosine"))
        p.add_argument("--budget", type=int, help="simplex budget")

    def policy_flags(p: argparse.ArgumentParser) -> None:
        # Settings shared by every classifier of a run.
        p.add_argument("--epsilon-mode", dest="epsilon_mode", choices=EPSILON_MODES)
        p.add_argument("--recovery", choices=RECOVERY_MODES)
        p.add_argument("--k", type=int)

    gen = sub.add_parser("generate", help="write a dataset CSV and its spec")
    common(gen)
    gen.set_defaults(func=_cmd_generate)

    per = sub.add_parser("persistence", help="compute a persistence diagram")
    common(per)
    rips_flags(per)
    per.set_defaults(func=_cmd_persistence)

    cls = sub.add_parser("classify", help="label the test vertices of one split")
    common(cls)
    rips_flags(cls)
    policy_flags(cls)
    cls.add_argument("--selector", choices=SELECTORS)
    cls.add_argument("--baseline", choices=("knn", "wknn"))
    cls.add_argument("--test-fraction", dest="test_fraction", type=float)
    cls.add_argument("--test-indices", dest="test_indices",
                     help="comma-separated vertex ids")
    cls.set_defaults(func=_cmd_classify)

    ev = sub.add_parser("evaluate", help="repeated stratified cross-validation")
    common(ev, dataset_required=False)
    rips_flags(ev)
    policy_flags(ev)
    ev.add_argument("--folds", type=int)
    ev.add_argument("--repeats", type=int)
    ev.add_argument("--classifiers", help=f"comma list from {_DEFAULTS['classifiers']}")
    ev.add_argument("--ramp", action="store_true", help="evaluate all 16 imbalance steps")
    ev.add_argument("--jobs", type=int, help="parallel workers for --ramp")
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and not args.ramp and not args.dataset:
        parser.error("evaluate needs --dataset or --ramp")
    try:
        return args.func(args)
    except TdabcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
