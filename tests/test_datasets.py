"""Unit and property tests for dataset generators, CSV handling, and bundles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdabc.datasets import (
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
from tdabc.errors import MissingLabelColumn, ParseError


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
    path.write_text("f0,f1,label\n0.0,1.0,a\n0.5,oops,b\n")
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
