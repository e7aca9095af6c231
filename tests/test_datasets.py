"""Unit and property tests for dataset generators, CSV handling, and bundles."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdabc.cli import main
from tdabc.datasets import (
    NAMES,
    LabeledDataset,
    load_bundled,
    load_csv,
    log_shift,
    make_circles,
    make_gaussian_classes,
    make_imbalance_ramp,
    make_moons,
    make_sphere,
    make_swissroll,
    save_csv,
)
from tdabc.errors import InvalidConfig, MissingLabelColumn, ParseError

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_circles_default_shape_and_radii():
    data = make_circles()
    assert data.points.shape == (50, 2)
    assert np.bincount(data.labels).tolist() == [25, 25]
    radii = np.linalg.norm(data.points, axis=1)
    assert radii[data.labels == 0].mean() == pytest.approx(1.0, abs=0.05)
    assert radii[data.labels == 1].mean() == pytest.approx(0.5, abs=0.05)


def test_moons_default_shape():
    data = make_moons()
    assert data.points.shape == (200, 2)
    assert np.bincount(data.labels).tolist() == [100, 100]


def test_swissroll_bands():
    data = make_swissroll()
    assert data.points.shape == (300, 3)
    assert np.bincount(data.labels).tolist() == [50] * 6


def test_gaussian_classes_default_is_wide():
    data = make_gaussian_classes()
    assert data.points.shape == (300, 350)
    assert np.bincount(data.labels).tolist() == [60, 10, 50, 100, 80]


def test_gaussian_separable_sanity_pair():
    data = make_gaussian_classes(dims=2, sizes=(10, 10), means=(0.0, 5.0), stdev=0.1)
    assert data.points.shape == (20, 2)
    a = data.points[data.labels == 0]
    b = data.points[data.labels == 1]
    assert np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) > 3.0


def test_sphere_default_size_and_imbalance():
    data = make_sphere()
    assert data.points.shape == (653, 3)
    counts = np.bincount(data.labels)
    assert counts.tolist() == [500, 100, 25, 16, 12]
    assert counts.max() / counts.min() == pytest.approx(41.7, abs=0.1)


def test_sphere_scale_couples_spacing_and_noise():
    # One scale parameter drives both shell spacing and radial noise, so
    # zero noise collapses every shell onto the same radius ...
    flat = make_sphere(sizes=(10, 10, 10, 10, 10), stdev=0.0)
    radii = np.linalg.norm(flat.points, axis=1)
    assert radii == pytest.approx(np.full(50, 0.3), abs=1e-12)
    # ... while any positive scale spaces the shells by mean*stdev, which
    # noise of scale stdev then drowns (per-class mean radii still ascend).
    data = make_sphere(sizes=(500, 500, 500, 500, 500), seed=0)
    radii = np.linalg.norm(data.points, axis=1)
    means = [radii[data.labels == c].mean() for c in range(5)]
    assert all(b > a for a, b in zip(means, means[1:]))
    gaps = np.diff(means)
    assert gaps == pytest.approx(np.full(4, 0.3 * 0.147), abs=0.02)


def test_ramp_counts_at_extremes():
    step1 = make_imbalance_ramp(1, seed=0)
    step16 = make_imbalance_ramp(16, seed=0)
    assert len(step1.labels) == 100
    assert len(step16.labels) == 850
    assert np.bincount(step1.labels).tolist() == [50, 50]
    assert np.bincount(step16.labels).tolist() == [50, 800]
    assert step16.spec == {"name": "ramp", "step": 16, "seed": 0}


def test_ramp_keeps_the_same_positive_draw_across_steps():
    a = make_imbalance_ramp(1, seed=4)
    b = make_imbalance_ramp(7, seed=4)
    pos_a = a.points[a.labels == 0]
    pos_b = b.points[b.labels == 0]
    assert np.array_equal(pos_a, pos_b)


def test_ramp_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        make_imbalance_ramp(0)
    with pytest.raises(ValueError):
        make_imbalance_ramp(17)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_circles(n_per_class=(25, 25, 25)),
        lambda: make_circles(n_per_class=(25,)),
        lambda: make_moons(n_per_class=(10, 10, 10)),
        lambda: make_gaussian_classes(dims=2, sizes=(5, 5), means=(0.0,)),
        lambda: LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), "short"),
        # No class, or a negative class size, is refused before any draw.
        lambda: make_sphere(sizes=()),
        lambda: make_swissroll(n_classes=0),
        lambda: make_gaussian_classes(sizes=(), means=()),
        lambda: make_circles(n_per_class=(-1, 5)),
        lambda: make_sphere(sizes=(5, -2)),
        lambda: make_swissroll(n_per_class=-1),
    ],
    ids=["circles-3", "circles-1", "moons-3", "normal-sizes-means", "points-labels",
         "sphere-no-class", "swissroll-no-class", "normal-no-class", "circles-negative",
         "sphere-negative", "swissroll-negative"],
)
def test_mismatched_inputs_raise_invalid_config(make):
    with pytest.raises(InvalidConfig):
        make()


@pytest.mark.parametrize(
    "factory",
    [
        lambda s: make_circles(seed=s),
        lambda s: make_moons(seed=s),
        lambda s: make_swissroll(seed=s),
        lambda s: make_gaussian_classes(dims=4, seed=s),
        lambda s: make_sphere(sizes=(20, 10, 5), seed=s),
        lambda s: make_imbalance_ramp(3, seed=s),
    ],
)
def test_generators_are_seed_deterministic(factory):
    a = factory(11)
    b = factory(11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_generator_seeds_differ():
    a = make_circles(seed=0)
    b = make_circles(seed=1)
    assert not np.array_equal(a.points, b.points)


# sha256 of the CSV and the spec JSON that ``tdabc generate --seed 3`` writes for
# each registered name (ramp at ``--step 16``).  A draw taken in another order,
# a changed label or a changed spec key alters them.
GENERATED_SHA256 = {
    "circles": ("e6dc4fb5c409666a1de973633c049dc5332be96f15d04af26f5c6917135ae54e",
                "5b1e430dd9cab89364bf98bfd9d779e87f5460cf7a6d743a5fa4225e4de38e4e"),
    "moons": ("8b97e39e96dcae683ca505ce2caa2b6a515ebe5b30070d8bc372966af6255c21",
              "c0150d73bba90f2c3c74fc9507dd1670187e1c2286cd84ed23fce671f8f13ac0"),
    "swissroll": ("66441b0062d9a262bd87957fa0a522e93679f77f582283167cb3808a2ebfd08f",
                  "c2f77830b2996bfa2eed9a3eb49bf16bd38caf7e46ee1f7787cf4beb6bffacf2"),
    "normal": ("820a1b383187992a2402b28f9bffd0252cc547e5e624f6b6f75868cbba062d73",
               "20e61bd978d70614c2721b98238b54a494660c5703689e356e9681996e8add48"),
    "sphere": ("2e9419b5f831be54022d382ee24e5b2c739a1d0828dc4864657fa50137213816",
               "a2f9fbe7c4406f894014cd824efd14540e4c3a6c5fc92817dea5c8363a654308"),
    "shells": ("2f6cbd671691ee13549ae25dc282125cba6b36fea5d55d498e18e4db58ecd140",
               "8631226e890638ac611e6155844fb4d9e515195f6177d5e0975c9477581ba795"),
    "ramp": ("ffa42fb48c43d1e7be1a0511f40e79f5c377cea94f58e6fd6fb9f7fd47ba665a",
             "a4956edaecd44b3a7ba175fff78a92e9816e2c6df53ae71f712c8991b1706550"),
    "iris": ("509e566766edc935c3edeff6f88e9a058a63b9897d044862fbcc35402ae52d2d",
             "fe01e200c0e3cbfb4411b9d6b8079e75d2820572928e2b807c374399286bc5c7"),
    "wine": ("9265c7e40f690ac13373e4fe0d1db62eb4ee88f8b4030f688c331efbf6b1a843",
             "36c749fe5b66516400fc79050949fb01b4035c8ee47bcb6ca6981ffcc394a42b"),
    "cancer": ("76fb8ec4eac6f11058eb0548037fbad6657608a38d5bd7fa9548afe7a9d452d4",
               "6e2100cf0b20cfe60159ece8d9ea834733a9f838c7edfec334a3237572768bde"),
}


@pytest.mark.parametrize("name", NAMES)
def test_generated_files_are_pinned(tmp_path, name):
    step = ["--step", "16"] if name == "ramp" else []
    assert main(["generate", "--dataset", name, "--seed", "3", *step, "--out", str(tmp_path)]) == 0
    stem = "ramp16" if name == "ramp" else name
    digests = tuple(hashlib.sha256((tmp_path / f"{stem}{suffix}").read_bytes()).hexdigest()
                    for suffix in (".csv", ".spec.json"))
    assert digests == GENERATED_SHA256[name]


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    data = make_circles()
    path = tmp_path / "c.csv"
    save_csv(data, path)
    again = load_csv(path)
    assert np.array_equal(again.points, data.points)
    assert np.array_equal(again.labels, data.labels)
    assert again.class_names == data.class_names


def test_load_csv_reports_bad_cell_location(tmp_path):
    path = tmp_path / "bad.csv"
    for cell in ("oops", "nan", "-inf"):
        path.write_text(f"f0,f1,label\n0.0,1.0,a\n0.5,{cell},b\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 3
        assert excinfo.value.column == "f1"


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f0,f1\n0.0,1.0\n")
    with pytest.raises(MissingLabelColumn):
        load_csv(path)


def test_load_csv_factorizes_sorted_names(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text("f0,label\n0.0,zebra\n1.0,ant\n2.0,zebra\n")
    data = load_csv(path)
    assert data.class_names == ("ant", "zebra")
    assert data.labels.tolist() == [1, 0, 1]


@pytest.mark.parametrize("header", ["label,f0,f1", "f0,f1,label"])
def test_load_csv_reads_past_a_byte_order_mark(tmp_path, header):
    # Spreadsheet programs save "CSV UTF-8" with a byte-order mark.
    columns = header.split(",")
    lines = [header]
    for i in range(12):
        cells = {"label": "ab"[i % 2], "f0": repr(10.0 * (i % 2) + i / 10), "f1": "0.0"}
        lines.append(",".join(cells[c] for c in columns))
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + "\n".join(lines) + "\n").encode("utf-8"))
    data = load_csv(path)
    assert data.spec["features"] == ["f0", "f1"]
    assert data.class_names == ("a", "b")
    rc = main(["classify", "--dataset", str(path), "--baseline", "knn", "--k", "1",
               "--out", str(tmp_path)])
    assert rc == 0


def test_written_files_do_not_depend_on_the_locale(tmp_path):
    # Outside UTF-8 mode a C locale makes ASCII the default file encoding.
    data = tmp_path / "accents.csv"
    data.write_bytes("f0,label\n0.0,é\n1.0,é\n10.0,ü\n11.0,ü\n".encode("utf-8"))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUTF8="0", LC_ALL="C", LANG="C")
    proc = subprocess.run(
        [sys.executable, "-m", "tdabc.cli", "generate", "--dataset", str(data),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "out" / "accents.csv").read_bytes()
    assert written.endswith("11.0,ü\n".encode("utf-8"))
    assert "é".encode("utf-8") in written


# ---------------------------------------------------------------------------
# log transform
# ---------------------------------------------------------------------------


def test_log_shift_makes_minimum_zero():
    data = LabeledDataset(
        points=np.array([[-3.0, 2.0], [0.0, 5.0]]),
        labels=np.array([0, 1]),
        name="t",
        class_names=("a", "b"),
    )
    shifted = log_shift(data)
    # M = 1 - (-3) = 4; minimum component ln(-3 + 4) = 0
    assert shifted.points.min() == pytest.approx(0.0)
    assert shifted.points[0, 1] == pytest.approx(np.log(6.0))


@given(st.integers(0, 10_000))
@example(6494)  # shifting before the log gave a minimum of -1.78e-15 here
@settings(max_examples=30, deadline=None)
def test_log_shift_arguments_always_at_least_one(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=10.0, size=(8, 3))
    data = LabeledDataset(points=pts, labels=np.zeros(8, dtype=int), name="r", class_names=("x",))
    shifted = log_shift(data)
    assert np.isfinite(shifted.points).all()
    assert (shifted.points >= 0.0).all()


# ---------------------------------------------------------------------------
# bundled data
# ---------------------------------------------------------------------------


def test_bundled_iris():
    data = load_bundled("iris")
    assert data.points.shape == (150, 4)
    assert np.bincount(data.labels).tolist() == [50, 50, 50]
    assert len(data.class_names) == 3


def test_bundled_wine():
    data = load_bundled("wine")
    assert data.points.shape == (178, 13)
    assert sorted(np.bincount(data.labels).tolist()) == [48, 59, 71]


def test_bundled_cancer():
    data = load_bundled("cancer")
    assert data.points.shape == (569, 30)
    assert len(np.unique(data.labels)) == 2


def test_bundled_unknown_name():
    with pytest.raises(Exception):
        load_bundled("nope")
