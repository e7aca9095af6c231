"""Command line entry point: generate, persistence, classify, evaluate.

Options resolve with flag > config-file > default precedence.  The config
file is a flat JSON object whose keys are the long flag names with
underscores; each value, a JSON string or number, is handed to its flag's own
parser, so the file accepts exactly what the flag accepts, and ``null`` keeps
the default.
Every usage or input error, argparse's own included, leaves through
``main`` as exit 2 with one ``error:`` line.  TDABC_OUT_DIR sets where
outputs land when --out is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
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
    KnnSpec,
    TdabcSpec,
    default_classifiers,
    run_experiment,
    write_ramp_csv,
)
from .persistence import boundary_reduce
from .rips import METRICS, RipsConfig, build_rips, pairwise_distances
from .selection import EPSILON_MODES, RECOVERY_MODES, SELECTORS, SelectionPolicy

_RIPS, _POLICY, _PLAN, _KNN = RipsConfig(), SelectionPolicy(), FoldPlan(), KnnConfig()
_BASELINES = {spec.name: spec for spec in default_classifiers() if isinstance(spec, KnnSpec)}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main`` instead of exiting."""

    def error(self, message: str):
        raise InvalidConfig(message)


def _read_config(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The config file's value options as ``--flag=value`` arguments for
    ``parser``; ``null`` and keys that name no value option are left out, and
    a value that is not a JSON string or number is refused."""
    try:
        conf = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"--config {path}: {exc}") from None
    if not isinstance(conf, dict):
        raise InvalidConfig(f"--config {path}: must hold a JSON object")
    options = [(action.dest, action.option_strings[0]) for action in parser._actions
               if action.nargs != 0 and action.dest not in ("dataset", "config")]
    for key, _ in options:
        if isinstance(conf.get(key), (bool, list, dict)):  # JSON true, false, arrays, objects
            raise InvalidConfig(f"--config {path}: {key!r} must be a JSON string or number, "
                                f"not {json.dumps(conf[key])}")
    return [f"{flag}={conf[key]}" for key, flag in options if conf.get(key) is not None]


def _checked(convert, accept, rule: str):
    """An argparse type: ``convert``, then refuse a value ``accept`` rejects."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value: 'x'"
    return parse


def _vertex_ids(text: str) -> frozenset[int]:
    """A ``--test-indices`` value: comma-separated non-negative integers."""
    bad = [tok for tok in text.split(",") if not tok.strip().isdecimal()]
    if bad:
        raise argparse.ArgumentTypeError(f"{bad[0]!r} is not a vertex id")
    return frozenset(map(int, text.split(",")))


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("TDABC_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _rips_config(args: argparse.Namespace) -> RipsConfig:
    return RipsConfig(
        max_dim=args.max_dim,
        max_edge=args.max_edge,
        metric=args.metric,
        budget=args.budget,
    )


def _dataset(args: argparse.Namespace) -> ds.LabeledDataset:
    return ds.resolve(
        args.dataset, seed=args.seed, step=args.step, label_column=args.label_column
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    data = _dataset(args)
    out = _out_dir(args)
    csv_path = out / f"{data.name}.csv"
    ds.save_csv(data, csv_path)
    ds.write_json(out / f"{data.name}.spec.json", data.spec)
    print(f"wrote {csv_path} ({len(data)} points, {data.n_classes} classes)")
    return 0


def _cmd_persistence(args: argparse.Namespace) -> int:
    data = _dataset(args)
    dist = pairwise_distances(data.points, args.metric)
    complex_ = build_rips(dist, _rips_config(args))
    diagram = boundary_reduce(complex_)
    # A class of dimension --max-dim never dies, because no simplex above the
    # cap exists to kill it, so only the dimensions below it are written.
    keep = diagram.dims < args.max_dim
    rows = list(zip(diagram.dims[keep].tolist(), diagram.births[keep].tolist(),
                    diagram.deaths[keep].tolist()))
    left_out = len(diagram) - len(rows)
    out = _out_dir(args)
    ds.write_rows(out / f"{data.name}.diagram.csv", ["dim", "birth", "death"], rows)
    ds.write_json(out / f"{data.name}.diagram.json", {
        "intervals": [{"dim": q, "birth": b, "death": "inf" if math.isinf(d) else d}
                      for q, b, d in rows],
        "max_filtration": diagram.max_filtration,
        "left_out_at_max_dim": left_out,
    })
    print(
        f"{len(complex_)} simplices, {len(rows)} intervals, {left_out} dimension-"
        f"{args.max_dim} classes left out, max filtration {diagram.max_filtration!r}"
    )
    return 0


def _split_test_vertices(data: ds.LabeledDataset, args: argparse.Namespace) -> frozenset[int]:
    if args.test_indices:
        if max(args.test_indices) >= len(data):
            raise InvalidConfig(f"--test-indices: vertex {max(args.test_indices)} "
                                f"is outside [0, {len(data)})")
        return args.test_indices
    rng = np.random.default_rng([args.seed, 1])
    chosen: list[int] = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        rng.shuffle(members)
        take = max(1, int(round(args.test_fraction * len(members))))
        chosen.extend(int(v) for v in members[:take])
    return frozenset(chosen)


def _cmd_classify(args: argparse.Namespace) -> int:
    data = _dataset(args)
    test = _split_test_vertices(data, args)
    table = AssociationTable(
        training={int(v): int(data.labels[v]) for v in range(len(data)) if v not in test},
        test_vertices=test,
        n_classes=data.n_classes,
    )
    dist = pairwise_distances(data.points, args.metric)
    if args.baseline:
        config = replace(_BASELINES[args.baseline], k=args.k)
        preds = knn_predict_all(dist, table, config, seed=args.seed)
    else:
        complex_ = build_rips(dist, _rips_config(args))
        diagram = boundary_reduce(complex_)
        policy = SelectionPolicy(args.selector, args.epsilon_mode, args.recovery)
        preds = classify_all(complex_, diagram, table, policy, dist, seed=args.seed)
    out = _out_dir(args)
    csv_path = out / f"{data.name}.predictions.csv"
    rows = zip(preds.vertex.tolist(), preds.label.tolist(), preds.provenance.tolist(),
               preds.probability.tolist())
    ds.write_rows(csv_path, ["vertex", "predicted", "provenance"]
                  + [f"p_{name}" for name in data.class_names],
                  ([v, data.class_names[label], prov, *probs] for v, label, prov, probs in rows))
    correct = int(np.count_nonzero(preds.label == data.labels[preds.vertex]))
    kinds, counts = np.unique(preds.provenance, return_counts=True)
    payload = {
        "dataset": data.name,
        "n_test": len(preds),
        "accuracy": correct / len(preds) if len(preds) else math.nan,
        "provenance_counts": dict(zip(kinds.tolist(), counts.tolist())),
    }
    ds.write_json(out / f"{data.name}.predictions.json", payload)
    print(f"wrote {csv_path} (accuracy {payload['accuracy']:.3f})")
    return 0


def _parse_roster(args: argparse.Namespace) -> tuple:
    """Named specs from ``default_classifiers()``, with the run's shared settings."""
    table = {spec.name: spec for spec in default_classifiers()}
    tokens = [tok.strip() for tok in args.classifiers.split(",") if tok.strip()]
    roster = []
    for token in tokens or table:
        if token not in table:
            raise InvalidConfig(f"unknown classifier {token!r}")
        spec = table[token]
        if isinstance(spec, TdabcSpec):
            spec = replace(spec, epsilon_mode=args.epsilon_mode, recovery=args.recovery)
        else:
            spec = replace(spec, k=args.k)
        roster.append(spec)
    return tuple(roster)


def _evaluate_one(data: ds.LabeledDataset, args: argparse.Namespace) -> EvaluationReport:
    plan = FoldPlan(folds=args.folds, repeats=args.repeats, seed=args.seed)
    return run_experiment(data, _parse_roster(args), plan, rips=_rips_config(args))


def _ramp_worker(payload: tuple[int, argparse.Namespace]) -> tuple[int, EvaluationReport]:
    step, args = payload
    data = ds.resolve("ramp", seed=args.seed, step=step)
    return step, _evaluate_one(data, args)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    if args.ramp:
        steps = list(range(1, 17))
        payloads = [(step, args) for step in steps]
        if args.jobs > 1:
            # Spawned, not forked: the parent's BLAS may already run threads.
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
                results = dict(pool.map(_ramp_worker, payloads))
        else:
            results = dict(map(_ramp_worker, payloads))
        write_ramp_csv(results, out / "ramp_curves.csv")
        summary = {str(step): results[step].summary() for step in steps}
        failures = sum(len(results[step].failures) for step in steps)
        ds.write_json(out / "ramp_summary.json", summary)
        print(f"wrote {out / 'ramp_curves.csv'} ({failures} fold failures)")
        return 0 if failures == 0 else 1
    data = _dataset(args)
    report = _evaluate_one(data, args)
    report.write_csv(out / f"{data.name}_report.csv")
    report.write_json(out / f"{data.name}_summary.json")
    print(
        f"wrote {out / (data.name + '_report.csv')} "
        f"({len(report.records)} records, {len(report.failures)} fold failures)"
    )
    return 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdabc",
        description="Label propagation over persistence-selected Rips subcomplexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, dataset_required: bool = True) -> None:
        p.add_argument("--dataset", required=dataset_required,
                       help="generator name, bundled name, or CSV path")
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--out", help="output directory (or TDABC_OUT_DIR)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--label-column", dest="label_column", default="label")
        p.add_argument("--step", type=int, help="ramp step, 1 to 16")

    def rips_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-dim", dest="max_dim", type=int, default=_RIPS.max_dim)
        p.add_argument("--max-edge", dest="max_edge", type=float, default=_RIPS.max_edge,
                       help="edge cap, a number or 'inf' (default: data-driven)")
        p.add_argument("--metric", choices=METRICS, default=_RIPS.metric)
        p.add_argument("--budget", type=int, default=_RIPS.budget, help="simplex budget")

    def policy_flags(p: argparse.ArgumentParser) -> None:
        # Settings shared by every classifier of a run.
        p.add_argument("--epsilon-mode", dest="epsilon_mode", choices=EPSILON_MODES,
                       default=_POLICY.epsilon_mode)
        p.add_argument("--recovery", choices=RECOVERY_MODES, default=_POLICY.recovery)
        p.add_argument("--k", type=int, default=_KNN.k)

    gen = sub.add_parser("generate", help="write a dataset CSV and its spec")
    common(gen)
    gen.set_defaults(func=_cmd_generate, parser=gen)

    per = sub.add_parser("persistence", help="compute a persistence diagram")
    common(per)
    rips_flags(per)
    per.set_defaults(func=_cmd_persistence, parser=per)

    cls = sub.add_parser("classify", help="label the test vertices of one split")
    common(cls)
    rips_flags(cls)
    policy_flags(cls)
    cls.add_argument("--selector", choices=SELECTORS, default=_POLICY.selector)
    cls.add_argument("--baseline", choices=tuple(_BASELINES))
    cls.add_argument("--test-fraction", dest="test_fraction", default=0.2,
                     type=_checked(float, lambda x: 0 < x < 1, "between 0 and 1"))
    cls.add_argument("--test-indices", dest="test_indices", type=_vertex_ids,
                     help="comma-separated vertex ids")
    cls.set_defaults(func=_cmd_classify, parser=cls)

    roster = ",".join(spec.name for spec in default_classifiers())
    ev = sub.add_parser("evaluate", help="repeated stratified cross-validation")
    common(ev, dataset_required=False)
    rips_flags(ev)
    policy_flags(ev)
    ev.add_argument("--folds", type=int, default=_PLAN.folds)
    ev.add_argument("--repeats", type=int, default=_PLAN.repeats)
    ev.add_argument("--classifiers", default=roster, help=f"comma list from {roster}")
    ev.add_argument("--ramp", action="store_true", help="evaluate all 16 imbalance steps")
    ev.add_argument("--jobs", type=_checked(int, lambda n: n >= 1, "at least 1"), default=1,
                    help="parallel workers for --ramp")
    ev.set_defaults(func=_cmd_evaluate, parser=ev)
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Options by flag > ``--config`` file > declared default: the file's values
    go in as flags ahead of the command line's, and the whole is parsed again."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and args.ramp == bool(args.dataset):
        parser.error("evaluate needs --dataset or --ramp, not both")
    if args.config:
        at = argv.index(args.command) + 1
        config = _read_config(args.config, args.parser)
        try:
            args = parser.parse_args([*argv[:at], *config, *argv[at:]])
        except InvalidConfig as exc:  # the command line parsed alone: the file is at fault
            raise InvalidConfig(f"--config {args.config}: {exc}") from None
    del args.parser  # --ramp workers receive the namespace, and a parser does not pickle
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (TdabcError, OSError) as exc:  # an OSError's message names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
