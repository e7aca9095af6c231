"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import argparse
import csv
import json

import numpy as np
import pytest

from tdabc.cli import _parse_args, _parse_roster, build_parser, main
from tdabc.evaluation import TdabcSpec, default_classifiers


def run_cli(*argv: str) -> int:
    return main(list(argv))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_csv_and_spec(tmp_path):
    rc = run_cli("generate", "--dataset", "circles", "--seed", "3", "--out", str(tmp_path))
    assert rc == 0
    csv_path = tmp_path / "circles.csv"
    spec_path = tmp_path / "circles.spec.json"
    assert csv_path.exists() and spec_path.exists()
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "label"
    assert len(rows) == 51  # header + 50 points
    spec = json.loads(spec_path.read_text())
    assert spec["seed"] == 3


def test_generate_sphere_row_count(tmp_path):
    rc = run_cli("generate", "--dataset", "sphere", "--seed", "7", "--out", str(tmp_path))
    assert rc == 0
    rows = (tmp_path / "sphere.csv").read_text().strip().splitlines()
    assert len(rows) == 654  # header + 653 points


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_cli("generate", "--dataset", "moons", "--seed", "5", "--out", str(a))
    run_cli("generate", "--dataset", "moons", "--seed", "5", "--out", str(b))
    assert (a / "moons.csv").read_bytes() == (b / "moons.csv").read_bytes()


def test_generate_ramp_requires_step(tmp_path, capsys):
    rc = run_cli("generate", "--dataset", "ramp", "--out", str(tmp_path))
    assert rc == 2
    assert "step" in capsys.readouterr().err


def test_unknown_dataset_exits_two(tmp_path, capsys):
    rc = run_cli("generate", "--dataset", "not-a-thing", "--out", str(tmp_path))
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--dataset", "circles", "--max-edge", "-1"),
        ("persistence", "--dataset", "circles", "--max-edge", "wide"),
        ("classify", "--dataset", "circles", "--test-indices", "999"),
        ("classify", "--dataset", "circles", "--test-indices", "0,-1"),
        ("classify", "--dataset", "circles", "--test-indices", "x"),
        ("generate", "--dataset", "ramp", "--step", "17"),
        ("evaluate", "--dataset", "circles", "--folds", "2", "--repeats", "1",
         "--classifiers", "knn", "--k", "0"),
        ("generate", "--dataset", "circles", "--seed", "-1"),
        ("evaluate", "--dataset", "circles", "--folds", "2", "--repeats", "1",
         "--classifiers", "knn", "--seed", "-2"),
        ("classify", "--dataset", "circles", "--test-fraction", "-1"),
        ("classify", "--dataset", "circles", "--test-fraction", "1.5"),
        ("evaluate", "--ramp", "--jobs", "0"),
    ],
)
def test_invalid_values_exit_two_with_one_error_line(tmp_path, capsys, argv):
    rc = run_cli(*argv, "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, content, reason",
    [
        (("persistence", "--dataset", "circles", "--config", "FILE"), None, "No such file"),
        (("persistence", "--dataset", "circles", "--config", "FILE"), "{not json", "line 1 column 2"),
        (("persistence", "--dataset", "circles", "--config", "FILE"),
         '{"max_dim": "x"}', "'max_dim' must be int"),
        (("classify", "--dataset", "FILE"), "f0,label\n0.0,a\n1.0,a\n2.0,a\n",
         "two classes"),
        (("classify", "--dataset", "FILE"), "f0,label\n0.0,a\nnan,b\n1.0,b\n",
         "(row 3, column f0)"),
        (("persistence", "--dataset", "circles", "--config", "FILE"),
         '{"metric": "bogus"}', "FILE: 'metric' must be one of"),
        *((("classify", "--dataset", "moons", "--config", "FILE"),
           json.dumps({key: "bogus"}), f"FILE: {key!r} must be one of")
          for key in ("selector", "epsilon_mode", "recovery", "baseline")),
    ],
)
def test_bad_input_files_exit_two_with_one_error_line(tmp_path, capsys, argv, content, reason):
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content)
    rc = run_cli(*(str(path) if a == "FILE" else a for a in argv), "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert reason.replace("FILE", str(path)) in err[0]


# Two valid values for each value option, as they are written on the command line.
OPTION_VALUES = {
    "out": ("a", "b"),
    "seed": ("3", "4"),
    "label_column": ("y", "z"),
    "step": ("2", "5"),
    "max_dim": ("2", "4"),
    "max_edge": ("0.5", "inf"),
    "metric": ("cosine", "manhattan"),
    "budget": ("1000", "2000"),
    "epsilon_mode": ("mid", "birth"),
    "recovery": ("lifespan", "sublevel"),
    "k": ("3", "7"),
    "selector": ("avg", "rand"),
    "baseline": ("knn", "wknn"),
    "test_fraction": ("0.3", "0.25"),
    "test_indices": ("1,2", "3"),
    "folds": ("3", "4"),
    "repeats": ("2", "1"),
    "classifiers": ("knn", "tdabc-m,wknn"),
    "jobs": ("2", "3"),
}


def value_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.nargs != 0 and action.dest not in ("dataset", "config"):
                yield command, action


def parsed(*argv: str) -> dict:
    """The parsed options of ``argv`` but for ``config``."""
    args = vars(_parse_args(list(argv)))
    del args["config"]
    return args


@pytest.mark.parametrize(
    "command, action", list(value_options()), ids=lambda x: getattr(x, "dest", x)
)
def test_config_values_parse_like_flags(tmp_path, command, action):
    first, second = OPTION_VALUES[action.dest]
    try:
        in_file = json.loads(first)
    except ValueError:
        in_file = first
    config = tmp_path / "config.json"
    config.write_text(json.dumps({action.dest: in_file}))
    flag, base = action.option_strings[0], (command, "--dataset", "circles")
    from_flag = parsed(*base, flag, first)
    assert from_flag != parsed(*base, flag, second)
    from_file = parsed(*base, "--config", str(config))
    assert from_file == from_flag
    assert type(from_file[action.dest]) is type(from_flag[action.dest])
    assert parsed(*base, "--config", str(config), flag, second) == parsed(*base, flag, second)


def test_null_config_values_keep_the_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: None for key in OPTION_VALUES}))
    base = ("evaluate", "--dataset", "circles")
    assert parsed(*base, "--config", str(config)) == parsed(*base)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_persistence_outputs_diagram_and_barcode(tmp_path):
    rc = run_cli(
        "persistence", "--dataset", "circles", "--seed", "0", "--out", str(tmp_path),
        "--max-dim", "2",
    )
    assert rc == 0
    for suffix in ("diagram.csv", "diagram.json", "barcode.csv"):
        assert (tmp_path / f"circles.{suffix}").exists()


def test_persistence_circles_has_dominant_loop(tmp_path):
    run_cli(
        "persistence", "--dataset", "circles", "--seed", "0", "--out", str(tmp_path),
        "--max-dim", "2", "--max-edge", "inf",
    )
    with (tmp_path / "circles.barcode.csv").open() as fh:
        bars = [row for row in csv.DictReader(fh) if row["dim"] == "1"]
    lengths = sorted((float(b["length"]) for b in bars), reverse=True)
    assert lengths
    assert len(lengths) == 1 or lengths[0] > 2 * lengths[1]


def test_persistence_rejects_tiny_budget(tmp_path, capsys):
    rc = run_cli(
        "persistence", "--dataset", "sphere", "--seed", "0", "--out", str(tmp_path),
        "--budget", "10",
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def blob_csv(tmp_path):
    """Two well-separated blobs saved as a CSV dataset."""
    rng = np.random.default_rng(0)
    rows = ["f0,f1,label"]
    for cx, name in ((0.0, "a"), (8.0, "b")):
        for _ in range(15):
            x, y = float(rng.normal(cx, 0.3)), float(rng.normal(0.0, 0.3))
            rows.append(f"{x!r},{y!r},{name}")
    path = tmp_path / "blobs.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_classify_separable_blobs_is_perfect(tmp_path):
    data = blob_csv(tmp_path)
    rc = run_cli(
        "classify", "--dataset", str(data), "--seed", "1", "--out", str(tmp_path),
        "--test-fraction", "0.2",
    )
    assert rc == 0
    payload = json.loads((tmp_path / "blobs.predictions.json").read_text())
    assert payload["accuracy"] == pytest.approx(1.0)


def test_classify_predictions_csv_has_provenance(tmp_path):
    data = blob_csv(tmp_path)
    run_cli(
        "classify", "--dataset", str(data), "--seed", "1", "--out", str(tmp_path),
        "--test-indices", "0,1,15,16",
    )
    with (tmp_path / "blobs.predictions.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["vertex"]) for r in rows] == [0, 1, 15, 16]
    assert {"vertex", "predicted", "provenance"} <= set(rows[0])
    assert all(r["provenance"] for r in rows)


def test_classify_rand_selector_reproducible(tmp_path):
    data = blob_csv(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        rc = run_cli(
            "classify", "--dataset", str(data), "--seed", "3", "--out", str(out),
            "--selector", "rand", "--test-fraction", "0.2",
        )
        assert rc == 0
    assert (a / "blobs.predictions.csv").read_bytes() == (b / "blobs.predictions.csv").read_bytes()


def test_classify_baseline_knn(tmp_path):
    data = blob_csv(tmp_path)
    rc = run_cli(
        "classify", "--dataset", str(data), "--seed", "1", "--out", str(tmp_path),
        "--baseline", "knn", "--k", "3", "--test-fraction", "0.2",
    )
    assert rc == 0
    payload = json.loads((tmp_path / "blobs.predictions.json").read_text())
    assert payload["accuracy"] == pytest.approx(1.0)


def test_classify_missing_file_fails(tmp_path, capsys):
    rc = run_cli(
        "classify", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_writes_report_and_summary(tmp_path):
    rc = run_cli(
        "evaluate", "--dataset", "circles", "--seed", "0", "--out", str(tmp_path),
        "--folds", "3", "--repeats", "1", "--classifiers", "tdabc-m,knn",
    )
    assert rc == 0
    report = tmp_path / "circles_report.csv"
    summary = tmp_path / "circles_summary.json"
    assert report.exists() and summary.exists()
    with report.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["classifier"] for r in rows} == {"tdabc-m", "knn"}
    payload = json.loads(summary.read_text())
    assert payload["dataset"] == "circles"


def test_evaluate_requires_dataset_or_ramp(capsys):
    with pytest.raises(SystemExit):
        run_cli("evaluate", "--folds", "3")
    assert "ramp" in capsys.readouterr().err


def test_evaluate_has_no_selector_option():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("evaluate", "--dataset", "circles", "--selector", "rand")
    assert excinfo.value.code == 2


def test_empty_classifier_list_keeps_the_shared_settings():
    args = argparse.Namespace(classifiers=" , ", k=3, epsilon_mode="mid", recovery="lifespan")
    roster = _parse_roster(args)
    assert [s.name for s in roster] == [s.name for s in default_classifiers()]
    for spec in roster:
        if isinstance(spec, TdabcSpec):
            assert (spec.epsilon_mode, spec.recovery) == ("mid", "lifespan")
        else:
            assert spec.k == 3


def test_evaluate_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": 3, "repeats": 1, "classifiers": "knn"}))
    rc = run_cli(
        "evaluate", "--dataset", "circles", "--seed", "0", "--out", str(tmp_path),
        "--config", str(config),
    )
    assert rc == 0
    with (tmp_path / "circles_report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["classifier"] for r in rows} == {"knn"}
    assert {int(r["fold"]) for r in rows} == {0, 1, 2}


def test_evaluate_flag_overrides_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": 3, "repeats": 1, "classifiers": "knn"}))
    rc = run_cli(
        "evaluate", "--dataset", "circles", "--seed", "0", "--out", str(tmp_path),
        "--config", str(config), "--folds", "2",
    )
    assert rc == 0
    with (tmp_path / "circles_report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {int(r["fold"]) for r in rows} == {0, 1}


def test_evaluate_ramp_writes_curves(tmp_path):
    rc = run_cli(
        "evaluate", "--ramp", "--seed", "0", "--out", str(tmp_path),
        "--folds", "2", "--repeats", "1", "--classifiers", "knn,wknn",
    )
    assert rc == 0
    curves = tmp_path / "ramp_curves.csv"
    assert curves.exists()
    with curves.open() as fh:
        rows = list(csv.DictReader(fh))
    steps = {int(r["step"]) for r in rows}
    assert steps == set(range(1, 17))
    assert (tmp_path / "ramp_summary.json").exists()


def test_ramp_workers_write_the_same_files_as_one_process(tmp_path):
    argv = ["evaluate", "--ramp", "--seed", "0", "--folds", "2", "--repeats", "1",
            "--classifiers", "knn,wknn"]
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli(*argv, "--jobs", jobs, "--out", str(out)) == 0
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["1"] == outputs["2"]
    assert set(outputs["1"]) == {"ramp_curves.csv", "ramp_summary.json"}
