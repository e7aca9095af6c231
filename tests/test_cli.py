"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json

import numpy as np
import pytest

from tdabc.cli import _parse_args, _parse_roster, build_parser, main
from tdabc.datasets import load_csv, make_sphere, save_csv
from tdabc.errors import InvalidConfig
from tdabc.evaluation import (
    FoldPlan,
    TdabcSpec,
    default_classifiers,
    run_experiment,
    write_ramp_csv,
)


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


def test_generate_shells_writes_the_326_point_shells(tmp_path):
    assert run_cli("generate", "--dataset", "shells", "--seed", "4", "--out", str(tmp_path)) == 0
    written = (tmp_path / "shells.csv").read_text()
    assert len(written.splitlines()) == 327  # header + 326 points
    # The file the shells benchmark writes for the same seed.
    save_csv(make_sphere(sizes=(250, 50, 12, 8, 6), seed=4), tmp_path / "reference.csv")
    assert written == (tmp_path / "reference.csv").read_text()
    assert json.loads((tmp_path / "shells.spec.json").read_text())["name"] == "shells"


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_cli("generate", "--dataset", "moons", "--seed", "5", "--out", str(a))
    run_cli("generate", "--dataset", "moons", "--seed", "5", "--out", str(b))
    assert (a / "moons.csv").read_bytes() == (b / "moons.csv").read_bytes()


def test_output_directory_precedence(tmp_path, monkeypatch):
    """``--out`` beats a ``--config`` ``out`` key, which beats TDABC_OUT_DIR,
    which beats the working directory."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(tmp_path / "config")}))
    cases = [
        (("--out", str(tmp_path / "flag"), "--config", str(config)), "env", "flag"),
        (("--config", str(config)), "env", "config"),
        ((), "env", "env"),
        ((), None, "cwd"),
    ]
    for argv, env, expected in cases:
        if env:
            monkeypatch.setenv("TDABC_OUT_DIR", str(tmp_path / env))
        else:
            monkeypatch.delenv("TDABC_OUT_DIR", raising=False)
        assert run_cli("generate", "--dataset", "circles", *argv) == 0
        written = list(tmp_path.rglob("circles.csv"))
        assert [p.parent.name for p in written] == [expected]
        written[0].unlink()


def test_generate_ramp_requires_step(tmp_path, capsys):
    rc = run_cli("generate", "--dataset", "ramp", "--out", str(tmp_path))
    assert rc == 2
    assert "step" in capsys.readouterr().err


def test_unknown_dataset_exits_two(tmp_path, capsys):
    rc = run_cli("generate", "--dataset", "not-a-thing", "--out", str(tmp_path))
    assert rc == 2
    assert "error" in capsys.readouterr().err


# Errors found while parsing, argparse's own included, and what each line says.
PARSE_ERRORS = {
    ("evaluate", "--folds", "3"): "evaluate needs --dataset or --ramp",
    ("evaluate", "--dataset", "circles", "--selector", "rand"):
        "unrecognized arguments: --selector rand",
    ("classify", "--dataset", "circles", "--k", "x"): "argument --k: invalid int value: 'x'",
    ("classify", "--dataset", "circles", "--metric", "bogus"):
        "argument --metric: invalid choice: 'bogus'",
    ("classify", "--dataset", "circles", "--max-dim", "2.5"):
        "argument --max-dim: invalid int value: '2.5'",
    ("classify", "--dataset", "circles", "--bogus"): "unrecognized arguments: --bogus",
    ("classify",): "the following arguments are required: --dataset",
    (): "the following arguments are required: command",
}


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
        # circles has 25 points per class
        ("evaluate", "--dataset", "circles", "--folds", "30", "--repeats", "1",
         "--classifiers", "knn"),
        ("evaluate", "--dataset", "circles", "--folds", "2", "--repeats", "1",
         "--classifiers", "knn,knn"),
        *PARSE_ERRORS,
    ],
)
def test_invalid_values_exit_two_with_one_error_line(tmp_path, capsys, argv):
    out = ("--out", str(tmp_path)) if argv else ()  # with no subcommand, --out is the error
    rc = run_cli(*argv, *out)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert PARSE_ERRORS.get(argv, "") in err[0]


def test_help_exits_zero_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("classify", "-h")
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tdabc classify")


@pytest.mark.parametrize(
    "argv, content, reason",
    [
        (("persistence", "--dataset", "circles", "--config", "FILE"), None, "No such file"),
        (("persistence", "--dataset", "circles", "--config", "FILE"), "{not json", "line 1 column 2"),
        (("persistence", "--dataset", "circles", "--config", "FILE"),
         '{"max_dim": "x"}', "FILE: argument --max-dim: invalid int value: 'x'"),
        (("classify", "--dataset", "FILE"), "f0,label\n0.0,a\n1.0,a\n2.0,a\n",
         "two classes"),
        (("classify", "--dataset", "FILE"), "f0,label\n0.0,a\nnan,b\n1.0,b\n",
         "(row 3, column f0)"),
        (("persistence", "--dataset", "circles", "--config", "FILE"),
         '{"metric": "bogus"}', "FILE: argument --metric: invalid choice: 'bogus'"),
        *((("classify", "--dataset", "moons", "--config", "FILE"), json.dumps({key: "bogus"}),
           f"FILE: argument --{key.replace('_', '-')}: invalid choice: 'bogus'")
          for key in ("selector", "epsilon_mode", "recovery", "baseline")),
        (("persistence", "--dataset", "circles", "--config", "FILE"),
         '{"max_edge": "wide"}', "FILE: argument --max-edge: invalid float value: 'wide'"),
        *(((command, "--dataset", "FILE"), "f0,label\n", "no data rows")
          for command in ("generate", "persistence", "classify", "evaluate")),
        (("persistence", "--dataset", "FILE", "--metric", "cosine"),
         "f0,f1,label\n0,0,a\n1,0,a\n0,1,b\n1,1,b\n", "cosine distance is undefined"),
        (("classify", "--dataset", "FILE"), "label\na\na\nb\nb\na\nb\n",
         "no feature column"),
        (("classify", "--dataset", "FILE"), b"f0,label\n0.0,a\n\xff,b\n1.0,b\n",
         "FILE: 'utf-8' codec can't decode byte 0xff"),
        # Paths the system refuses: DIR stands for the test's directory.
        (("generate", "--dataset", "circles", "--out", "FILE"), "", "File exists: 'FILE'"),
        (("generate", "--dataset", "circles", "--out", "FILE/sub"), "",
         "Not a directory: 'FILE/sub'"),
        (("classify", "--dataset", "DIR"), None, "Is a directory: 'DIR'"),
        # An empty label cell, also one holding only blanks.
        (("classify", "--dataset", "FILE", "--baseline", "knn", "--k", "1"),
         "f0,label\n0,a\n1,a\n2,a\n10,\n11,\n12,\n", "empty label (row 5, column label)"),
        (("classify", "--dataset", "FILE"), "f0,label\n0,a\n1, \n2,b\n",
         "empty label (row 3, column label)"),
        # A row is numbered by the file line it starts on, after a cell spanning two.
        (("classify", "--dataset", "FILE"), 'f0,label\n0,"x\ny"\nnan,b\n',
         "(row 4, column f0)"),
        # A config value is a JSON string or number, and a range error names the file.
        (("classify", "--dataset", "circles", "--baseline", "knn", "--config", "FILE"),
         '{"k": true}', "--config FILE: 'k' must be a JSON string or number, not true"),
        (("classify", "--dataset", "circles", "--baseline", "knn", "--config", "FILE"),
         '{"test_indices": [1, 2]}',
         "--config FILE: 'test_indices' must be a JSON string or number, not [1, 2]"),
        (("classify", "--dataset", "circles", "--config", "FILE"), '{"test_fraction": 2}',
         "--config FILE: argument --test-fraction: must be between 0 and 1, got 2.0"),
        (("evaluate", "--ramp", "--config", "FILE"), '{"jobs": 0}',
         "--config FILE: argument --jobs: must be at least 1, got 0"),
    ],
)
def test_bad_input_files_exit_two_with_one_error_line(tmp_path, capsys, argv, content, reason):
    path = tmp_path / "input.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)

    def fill(text: str) -> str:
        return text.replace("FILE", str(path)).replace("DIR", str(tmp_path))

    out = () if "--out" in argv else ("--out", str(tmp_path))
    rc = run_cli(*map(fill, argv), *out)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert fill(reason) in err[0]


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


def test_config_file_with_a_byte_order_mark_parses(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xef\xbb\xbf{"k": 1}')
    base = ("classify", "--dataset", "circles", "--baseline", "knn")
    assert parsed(*base, "--config", str(config)) == parsed(*base, "--k", "1")
    assert run_cli(*base, "--config", str(config), "--out", str(tmp_path)) == 0


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


# sha256 of the files ``tdabc persistence --dataset circles`` writes, recorded
# when the diagram came from the boundary-matrix reduction; any route to the
# diagram must write the same bytes.
PERSISTENCE_CIRCLES_SHA256 = {
    "circles.diagram.csv": "fce7216e07c8fb0be06985c9f6428fdb4f9f54b73dcc48ab1478593cc5c4f6f1",
    "circles.diagram.json": "85cd80c8e17c4eebccd531a9b0a419d805a5065fb8792288e4544f72d505ed08",
    "circles.barcode.csv": "1324bcc9191fd67fa348b81ec53319b8cb743cad70a4e993e1004b3111d455b9",
}


def test_persistence_circles_output_is_pinned(tmp_path):
    assert run_cli("persistence", "--dataset", "circles", "--out", str(tmp_path)) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PERSISTENCE_CIRCLES_SHA256
    }
    assert digests == PERSISTENCE_CIRCLES_SHA256


# sha256 of the files ``tdabc persistence --dataset shells --max-dim 2 --budget
# 400000`` writes, recorded when every interval was a ``PersistenceInterval``;
# unlike the circles, its top dimension holds 236,435 immortal triangles.
PERSISTENCE_SHELLS_SHA256 = {
    "shells.diagram.csv": "788845dc1beefc8e21493d9c3134747da1d75349852c3528b51f6f7109e6eb51",
    "shells.diagram.json": "2e6a65e55eef27f92d82fa631d716e9014cb663edc709102ef0c7ae3df003755",
    "shells.barcode.csv": "f90b2bf7d588baeb7889380fe79dbf6f2bd8c9a3f8c2ac8a48caa2a65d1b9535",
}


def test_persistence_shells_output_is_pinned(tmp_path):
    assert run_cli("persistence", "--dataset", "shells", "--max-dim", "2",
                   "--budget", "400000", "--out", str(tmp_path)) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PERSISTENCE_SHELLS_SHA256
    }
    assert digests == PERSISTENCE_SHELLS_SHA256


# sha256 of the files ``tdabc classify`` writes on the generated ramp step 16,
# recorded when each vertex's label came from its own per-vertex rule; any
# route from scores to predictions must write the same bytes.  The seed-3
# runs were recorded while the selection seed was a field of the policy: the
# ``rand`` draw there differs from the draws of seeds 0 and 1, and ``wknn``
# from ``knn``, so each pins a setting reaching its classifier.
RAMP_CLASSIFY_SHA256 = {
    "tdabc": {
        "ramp16.predictions.csv": "f9a2acda2c2fb80e11f52267a958335615ea9045652c42deb2b6f0cfc52314ed",
        "ramp16.predictions.json": "e1fa4dd868fa6acb76faff7f4e3c5d0e39075d751ffe3de81750d870888898a1",
    },
    "knn": {
        "ramp16.predictions.csv": "24fe3b68495a70b1e0bade264a4875efb253e1bbfc45c5997dff25d9bddae515",
        "ramp16.predictions.json": "4a4d0d895bfcdf7853514865a8ddcc14d7e82a7ed727f8600bad543eba40f791",
    },
    "tdabc-rand-seed3": {
        "ramp16.predictions.csv": "b1059499650bacb3c39a86809aeb93d1a28edf755781fba720a6d5fe14aa997d",
        "ramp16.predictions.json": "a102a1b436fc66cbb0231ba086e7fa94c95087bd7563353c80e97e0e3d5d753e",
    },
    "wknn-seed3": {
        "ramp16.predictions.csv": "1b53d675bb443d2a310cd4413e8f9ad17651b271b7d575960f2ce40c906fc606",
        "ramp16.predictions.json": "e1225a829fa8b2f68b0d82630e8f8c6b20d570856eec560bfa4ee7b598b27857",
    },
}


def classify_ramp16(tmp_path, pin: str, *options: str) -> list[dict]:
    """Rows of ``predictions.csv`` from ``tdabc classify`` on ramp step 16,
    after checking both written files against ``RAMP_CLASSIFY_SHA256[pin]``."""
    assert run_cli("generate", "--dataset", "ramp", "--step", "16", "--out", str(tmp_path)) == 0
    out = tmp_path / "out"
    data = str(tmp_path / "ramp16.csv")
    assert run_cli("classify", "--dataset", data, *options, "--out", str(out)) == 0
    pinned = RAMP_CLASSIFY_SHA256[pin]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned
    with (out / "ramp16.predictions.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_classify_ramp_output_is_pinned(tmp_path):
    rows = classify_ramp16(tmp_path, "tdabc",
                           "--max-dim", "2", "--max-edge", "0.3", "--budget", "400000")
    kinds = [r["provenance"] for r in rows]
    # The pin covers the fallback rows as well as the ordinary ones.
    assert (kinds.count("global_fallback"), kinds.count("isolated"), kinds.count("link")) == (
        11, 14, 145
    )


def test_classify_knn_ramp_output_is_pinned(tmp_path):
    rows = classify_ramp16(tmp_path, "knn", "--baseline", "knn", "--k", "4")
    # The pin covers vertices whose vote tied, so their label was drawn.
    assert sum(1 for r in rows if (r["p_0"], r["p_1"]) == ("0.5", "0.5")) == 7


def test_classify_rand_selection_seed_output_is_pinned(tmp_path):
    classify_ramp16(tmp_path, "tdabc-rand-seed3", "--seed", "3", "--selector", "rand",
                    "--epsilon-mode", "birth", "--max-dim", "2", "--max-edge", "0.3",
                    "--budget", "400000")


def test_classify_wknn_ramp_output_is_pinned(tmp_path):
    classify_ramp16(tmp_path, "wknn-seed3", "--seed", "3", "--baseline", "wknn", "--k", "4")


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


QUOTED_NAMES = ("north, upper", 'say "hi"', "plain")


def read_rows(path) -> list[list[str]]:
    """A written CSV's rows, each checked to be as wide as the header."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == len(rows[0]) for row in rows)
    return rows


def test_class_names_that_need_quoting_survive_every_csv_writer(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "quoted.csv"
    with data.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "label"])
        for shift, name in enumerate(QUOTED_NAMES):
            for x, y in rng.normal(8.0 * shift, 0.3, size=(10, 2)).tolist():
                writer.writerow([repr(x), repr(y), name])
    names = set(QUOTED_NAMES)

    gen, cls, ev = (tmp_path / d for d in ("gen", "cls", "ev"))
    assert run_cli("generate", "--dataset", str(data), "--out", str(gen)) == 0
    rows = read_rows(gen / "quoted.csv")
    assert rows[0] == ["f0", "f1", "label"]
    assert [row[2] for row in rows[1:]] == [n for n in QUOTED_NAMES for _ in range(10)]

    assert run_cli("classify", "--dataset", str(data), "--seed", "1",
                   "--test-fraction", "0.2", "--out", str(cls)) == 0
    rows = read_rows(cls / "quoted.predictions.csv")
    assert rows[0][3:] == [f"p_{n}" for n in sorted(names)]
    assert {row[1] for row in rows[1:]} <= names

    assert run_cli("evaluate", "--dataset", str(data), "--classifiers", "knn",
                   "--folds", "2", "--repeats", "1", "--out", str(ev)) == 0
    rows = read_rows(ev / "quoted_report.csv")
    assert len(rows[0]) == 16
    assert {row[4] for row in rows[1:]} == names | {"macro"}

    knn = [spec for spec in default_classifiers() if spec.name == "knn"]
    report = run_experiment(load_csv(data), knn, FoldPlan(folds=2, repeats=1))
    write_ramp_csv({1: report}, tmp_path / "ramp_curves.csv")
    rows = read_rows(tmp_path / "ramp_curves.csv")
    assert len(rows[0]) == 6
    assert {row[2] for row in rows[1:]} == names | {"macro"}


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


# sha256 of the files ``tdabc evaluate`` writes on iris, recorded when each
# mean was the built-in ``sum`` of a float list on Python 3.11; the means must
# stay left-to-right sums on every interpreter.
EVALUATE_IRIS_SHA256 = {
    "iris_report.csv": "d5ff73cf82f50531f54803a4c0d6e3446095425dfc83936c14ab6a1d0ff8fab5",
    "iris_summary.json": "47e5a345149998678ac3f8e63e9c36f0f9089afba3c9958df04d342be4b5c1b9",
}


def test_evaluate_iris_output_is_pinned(tmp_path):
    assert run_cli(
        "evaluate", "--dataset", "iris", "--max-dim", "3", "--budget", "150000",
        "--folds", "3", "--repeats", "1", "--out", str(tmp_path),
    ) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in EVALUATE_IRIS_SHA256
    }
    assert digests == EVALUATE_IRIS_SHA256


# sha256 of the files ``tdabc evaluate --recovery lifespan`` writes on iris,
# recorded when a band with simplices below its birth read its faces from a
# scan of that prefix; every band of this run has such simplices.
EVALUATE_IRIS_LIFESPAN_SHA256 = {
    "iris_report.csv": "ebaffadf1eb4e34c3e1018e80579c72ebcfbcd96699a1914d4bb49b6356218da",
    "iris_summary.json": "b778eff64e21a64aef6f00ecdca71baff1caa596b94d9e3c789949912c7f5207",
}


def test_evaluate_iris_lifespan_output_is_pinned(tmp_path):
    assert run_cli(
        "evaluate", "--dataset", "iris", "--recovery", "lifespan", "--max-dim", "3",
        "--budget", "150000", "--folds", "3", "--repeats", "1", "--out", str(tmp_path),
    ) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in EVALUATE_IRIS_LIFESPAN_SHA256
    }
    assert digests == EVALUATE_IRIS_LIFESPAN_SHA256


# sha256 of the files ``tdabc evaluate`` writes on the shells, recorded when
# each class's rates came from its own one-vs-rest masks; 60 of its rows are
# degenerate, because small shells are never predicted in some folds.
EVALUATE_SHELLS_SHA256 = {
    "shells_report.csv": "fd2a078e7e2e8a1e651c956984051d02ad4a7b1620cd4974d3ee89670e471d46",
    "shells_summary.json": "8776e8cef517c0ad577ee7ee6807d896b9f4fd1dda9c50d18b90fff8082b6e04",
}


def test_evaluate_shells_output_is_pinned(tmp_path):
    assert run_cli(
        "evaluate", "--dataset", "shells", "--max-dim", "2", "--budget", "400000",
        "--folds", "3", "--repeats", "1", "--out", str(tmp_path),
    ) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in EVALUATE_SHELLS_SHA256
    }
    assert digests == EVALUATE_SHELLS_SHA256


def test_empty_classifier_list_keeps_the_shared_settings():
    args = argparse.Namespace(classifiers=" , ", k=3, epsilon_mode="mid", recovery="lifespan")
    roster = _parse_roster(args)
    assert [s.name for s in roster] == [s.name for s in default_classifiers()]
    for spec in roster:
        if isinstance(spec, TdabcSpec):
            assert (spec.epsilon_mode, spec.recovery) == ("mid", "lifespan")
        else:
            assert spec.k == 3


def test_unknown_classifier_is_an_invalid_config():
    args = argparse.Namespace(classifiers="knn,bogus", k=3, epsilon_mode="mid",
                              recovery="lifespan")
    with pytest.raises(InvalidConfig, match="unknown classifier 'bogus'"):
        _parse_roster(args)


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
