"""Synthetic dataset generators, CSV ingestion, the log-shift transform,
the registry that maps a dataset name to its data, and the one CSV and one
JSON format of every file the package writes."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidConfig, MissingLabelColumn, ParseError, UnknownDataset


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    name: str
    spec: dict = field(default_factory=dict)
    class_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)
        if len(pts) != len(labs):
            raise InvalidConfig(f"{len(pts)} points but {len(labs)} labels")
        if not self.class_names:
            n = int(labs.max()) + 1 if len(labs) else 0
            object.__setattr__(
                self, "class_names", tuple(str(c) for c in range(n))
            )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _labeled(title: str, chunks: Sequence[np.ndarray], **spec) -> LabeledDataset:
    """The generators' one constructor: the per-class ``chunks`` stacked, chunk
    ``c`` labeled ``c``, under ``title`` and the spec ``{"name": title, **spec}``."""
    labels = np.repeat(np.arange(len(chunks)), [len(chunk) for chunk in chunks])
    return LabeledDataset(np.vstack(chunks), labels, title, {"name": title, **spec})


def _check_sizes(sizes: Sequence[int]) -> None:
    """Refuse no class or a negative class size before any draw; an empty
    class is allowed."""
    if not len(sizes):
        raise InvalidConfig("a dataset needs at least one class")
    if min(sizes) < 0:
        raise InvalidConfig(f"class sizes must be non-negative, got {list(sizes)}")


def make_circles(
    n_per_class: Sequence[int] = (25, 25), noise: float = 3.0, seed: int = 0
) -> LabeledDataset:
    """Two concentric circles, inner radius half the outer, jittered."""
    if len(n_per_class) != 2:
        raise InvalidConfig(f"circles take two class sizes, got {list(n_per_class)}")
    _check_sizes(n_per_class)
    rng = np.random.default_rng(seed)
    chunks = []
    for n, radius in zip(n_per_class, (1.0, 0.5)):
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        chunks.append(ring + rng.normal(scale=noise / 100.0, size=ring.shape))
    return _labeled("circles", chunks, n_per_class=list(n_per_class), noise=noise, seed=seed)


def make_moons(
    n_per_class: Sequence[int] = (100, 100), noise: float = 10.0, seed: int = 0
) -> LabeledDataset:
    """Two interleaving half circles with Gaussian jitter."""
    if len(n_per_class) != 2:
        raise InvalidConfig(f"moons take two class sizes, got {list(n_per_class)}")
    _check_sizes(n_per_class)
    rng = np.random.default_rng(seed)
    t0, t1 = (np.linspace(0.0, np.pi, n) for n in n_per_class)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    # The upper half's jitter is drawn first.
    chunks = [half + rng.normal(scale=noise / 100.0, size=half.shape) for half in (upper, lower)]
    return _labeled("moons", chunks, n_per_class=list(n_per_class), noise=noise, seed=seed)


def make_swissroll(
    n_per_class: int = 50, n_classes: int = 6, noise: float = 10.0, seed: int = 0
) -> LabeledDataset:
    """A rolled sheet in three dimensions, labeled by equal arc-length bands."""
    _check_sizes([n_per_class] * n_classes)
    rng = np.random.default_rng(seed)
    t_lo, t_hi = 1.5 * np.pi, 4.5 * np.pi
    # Arc length of (t cos t, t sin t) grows like the integral of sqrt(1 + t^2).
    grid = np.linspace(t_lo, t_hi, 4096)
    speed = np.sqrt(1.0 + grid**2)
    arc = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) / 2.0 * np.diff(grid))])
    cuts = np.linspace(0.0, arc[-1], n_classes + 1)
    chunks = []
    for c in range(n_classes):
        s = rng.uniform(cuts[c], cuts[c + 1], size=n_per_class)
        t = np.interp(s, arc, grid)
        height = rng.uniform(0.0, 10.0, size=n_per_class)
        pts = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
        chunks.append(pts + rng.normal(scale=noise / 100.0, size=pts.shape))
    return _labeled("swissroll", chunks, n_per_class=n_per_class, n_classes=n_classes,
                    noise=noise, seed=seed)


def make_gaussian_classes(
    dims: int = 350,
    sizes: Sequence[int] = (60, 10, 50, 100, 80),
    means: Sequence[float] = (0.0, 0.3, 0.18, 0.67, 0.0),
    stdev: float = 0.3,
    seed: int = 0,
) -> LabeledDataset:
    """Axis-aligned Gaussian blobs, one per class, identical per-class means."""
    if len(sizes) != len(means):
        raise InvalidConfig(f"{len(sizes)} class sizes but {len(means)} means")
    _check_sizes(sizes)
    rng = np.random.default_rng(seed)
    chunks = [rng.normal(loc=mu, scale=stdev, size=(n, dims)) for n, mu in zip(sizes, means)]
    return _labeled("normal", chunks, dims=dims, sizes=list(sizes), means=list(means),
                    stdev=stdev, seed=seed)


def make_sphere(
    sizes: Sequence[int] = (500, 100, 25, 16, 12),
    mean: float = 0.3,
    stdev: float = 0.147,
    seed: int = 0,
) -> LabeledDataset:
    """Concentric spherical shells with Gaussian radial noise."""
    _check_sizes(sizes)
    rng = np.random.default_rng(seed)
    chunks = []
    for c, n in enumerate(sizes):
        direction = rng.normal(size=(n, 3))
        direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-30)
        radius = mean * (1.0 + c * stdev) + rng.normal(scale=stdev, size=(n, 1))
        chunks.append(direction * radius)
    return _labeled("sphere", chunks, sizes=list(sizes), mean=mean, stdev=stdev, seed=seed)


def make_imbalance_ramp(step: int, seed: int = 0) -> LabeledDataset:
    """Fixed positive blob against a negative blob growing 50 points per step."""
    if not 1 <= step <= 16:
        raise InvalidConfig("step must be between 1 and 16")
    rng_pos = np.random.default_rng([seed, 0])
    rng_neg = np.random.default_rng([seed, 1])
    positive = rng_pos.normal(loc=0.0, scale=1.1, size=(50, 2))
    # One long draw, truncated per step, so later steps extend earlier ones.
    negative = rng_neg.normal(loc=2.0, scale=2.2, size=(800, 2))[: 50 * step]
    return _labeled(f"ramp{step:02d}", [positive, negative], name="ramp", step=step, seed=seed)


def load_csv(path: str | Path, label_column: str = "label") -> LabeledDataset:
    """Numeric feature CSV with a header; labels factorized by sorted value.
    The file is UTF-8, with or without a byte-order mark."""
    path = Path(path)
    lines, start = [], 1  # each record with the file line it starts on
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row in reader:
                lines.append((start, row))
                start = reader.line_num + 1
    except UnicodeDecodeError as exc:  # a ValueError, not an OSError
        raise ParseError(f"{path}: {exc}") from None
    if not lines:
        raise ParseError("empty file")
    header = [h.strip() for h in lines[0][1]]
    if label_column not in header:
        raise MissingLabelColumn(f"no column {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    if not feature_names:
        raise ParseError(f"no feature column besides {label_column!r}")
    rows, raw_labels = [], []
    for lineno, row in lines[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=lineno)
        feats = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"not a finite number: {cell!r}", row=lineno, column=header[i])
            feats.append(value)
        label = row[label_idx].strip()
        if not label:
            raise ParseError("empty label", row=lineno, column=label_column)
        rows.append(feats)
        raw_labels.append(label)
    if not rows:
        raise ParseError("no data rows")
    classes = sorted(set(raw_labels))
    index = {c: i for i, c in enumerate(classes)}
    return LabeledDataset(
        np.array(rows, dtype=float),
        np.array([index[c] for c in raw_labels]),
        path.stem,
        {"name": path.stem, "source": str(path), "features": feature_names},
        class_names=tuple(classes),
    )


def log_shift(dataset: LabeledDataset) -> LabeledDataset:
    """Natural log of the coordinates shifted so their minimum becomes one."""
    low = float(dataset.points.min())
    # log1p of the offset from the minimum: adding the shift first could
    # round the minimum's argument below one and give a negative log.
    return replace(dataset, points=np.log1p(dataset.points - low),
                   spec={**dataset.spec, "log_shift": 1.0 - low})


def save_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Feature columns then a label column; floats written exactly."""
    d = dataset.points.shape[1] if dataset.points.ndim == 2 else 1
    rows = zip(dataset.points.reshape(len(dataset), d).tolist(), dataset.labels.tolist())
    write_rows(path, [f"f{i}" for i in range(d)] + ["label"],
               ([*row, dataset.class_names[lab]] for row, lab in rows))


def write_rows(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The one CSV format: UTF-8, ``\\n`` line ends, a cell quoted only when it
    needs to be.  Cells are written with ``str``, which for a Python float is
    its ``repr``: pass ``.tolist()`` values, not numpy scalars."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: object) -> None:
    """The one JSON format: two-space indent, sorted keys, a final newline, UTF-8."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_bundled(name: str) -> LabeledDataset:
    """One of the classic measurement tables shipped with the package."""
    if name not in BUNDLED:
        raise UnknownDataset(f"no bundled dataset named {name!r}")
    ref = resources.files("tdabc").joinpath(f"data/{name}.csv")
    with resources.as_file(ref) as path:
        out = load_csv(path, label_column="label")
    return replace(out, name=name, spec={"name": name, "source": "bundled"})


# -- registry ------------------------------------------------------------------
#
# The one mapping from a dataset name to its data.  Generators take the
# seed, and ``ramp`` its step too; bundled tables take neither, and wine and
# cancer move to log scale before distances.


def _ramp(seed: int, step: int | None) -> LabeledDataset:
    if step is None:
        raise InvalidConfig("dataset 'ramp' needs --step between 1 and 16")
    return make_imbalance_ramp(int(step), seed=seed)


def _shells(seed: int, step: int | None) -> LabeledDataset:
    # The 326-point entangled shells of the stress case, named so that their
    # files and spec name resolve back to them.
    data = make_sphere(sizes=(250, 50, 12, 8, 6), seed=seed)
    return replace(data, name="shells", spec={**data.spec, "name": "shells"})


BUNDLED = ("iris", "wine", "cancer")
_REGISTRY = {
    "circles": lambda seed, step: make_circles(seed=seed),
    "moons": lambda seed, step: make_moons(seed=seed),
    "swissroll": lambda seed, step: make_swissroll(seed=seed),
    "normal": lambda seed, step: make_gaussian_classes(seed=seed),
    "sphere": lambda seed, step: make_sphere(seed=seed),
    "shells": _shells,
    "ramp": _ramp,
    "iris": lambda seed, step: load_bundled("iris"),
    "wine": lambda seed, step: log_shift(load_bundled("wine")),
    "cancer": lambda seed, step: log_shift(load_bundled("cancer")),
}
# Every registered name, in the order error messages list them.
NAMES = tuple(_REGISTRY)


def resolve(
    name: str, seed: int = 0, step: int | None = None, label_column: str = "label"
) -> LabeledDataset:
    """The dataset a registered name stands for, or else the CSV at path ``name``."""
    if seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")
    make = _REGISTRY.get(name)
    if make is not None:
        return make(seed, step)
    path = Path(name)
    if path.exists():
        return load_csv(path, label_column=label_column)
    raise UnknownDataset(
        f"{name!r} is neither a known dataset ({', '.join(NAMES)}) nor a file"
    )
