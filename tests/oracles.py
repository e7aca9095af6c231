"""Second routes to what the package computes, kept only as test references.

Each function here reaches a result the package also reaches, by a route
that shares no code with the package's own: boundary-matrix reduction for
persistence diagrams, dense boundary-map ranks for Betti numbers,
vertex-set differences over the open star for links, the link-form sum for
the label extension, one vertex at a time for the distance-ball vote and
the prediction rule, a per-interval scan for lifetimes, every vertex subset
for the Rips complex, sorted tuples for the filtration order and its
vertex rows, one class's masks at a time for the confusion rates, every
positive-negative pair for the ROC AUC and a sort of its own per class for
the average precision, and indices dealt into Python lists for the
stratified folds.  Tests compare the two routes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from tdabc.classifier import (
    EPSILON_FLOOR,
    PROVENANCE_FALLBACK,
    AssociationTable,
    associate,
    majority_class,
)
from tdabc.complexes import FilteredComplex, Simplex, facets
from tdabc.errors import CapacityExceeded, DegenerateClass, InvalidConfig, SimplexNotFound
from tdabc.evaluation import FoldPlan
from tdabc.persistence import Diagram, PersistenceInterval

_ORACLE_DIM_CAP = 6000


def lifetime(d: PersistenceInterval, max_filtration: float) -> float:
    """Interval span with the death clamped to the filtration's end."""
    return min(d.death, max_filtration) - d.birth


def rips_cliques(dist: np.ndarray, cap: float, max_dim: int) -> dict[Simplex, float]:
    """Every vertex set of at most ``max_dim + 1`` points whose pairwise
    distances are all within ``cap``, valued at the largest of them (0 for
    a vertex)."""
    out: dict[Simplex, float] = {}
    for size in range(1, max_dim + 2):
        for s in combinations(range(dist.shape[0]), size):
            pairs = [float(dist[a, b]) for a, b in combinations(s, 2)]
            if all(d <= cap for d in pairs):
                out[s] = max(pairs, default=0.0)
    return out


def tuple_order(values: dict[Simplex, float]) -> list[Simplex]:
    """Filtration order of a simplex-to-value map: by value, then dimension,
    then vertex tuple, by sorting the tuples."""
    return sorted(values, key=lambda s: (values[s], len(s), s))


def tuple_rows(values: dict[Simplex, float]) -> tuple[np.ndarray, np.ndarray]:
    """Simplices of dimension one and up in ``tuple_order``, as an ``int64``
    matrix of vertex rows padded with -1 and packed by ``np.fromiter``, and
    their values."""
    cofaces = [s for s in tuple_order(values) if len(s) > 1]
    width = max(map(len, cofaces), default=1)
    pad = (-1,) * width
    flat = chain.from_iterable((s + pad)[:width] for s in cofaces)
    matrix = np.fromiter(flat, dtype=np.int64, count=len(cofaces) * width)
    vals = np.fromiter(map(values.__getitem__, cofaces), dtype=np.float64, count=len(cofaces))
    return matrix.reshape(len(cofaces), width), vals


def link_via_star(complex_: FilteredComplex, s: Iterable[int]) -> set[Simplex]:
    """Link computed as vertex-set differences over the open star."""
    key = tuple(s)
    sset = set(key)
    out: set[Simplex] = set()
    for t in complex_.star(key):
        if t == key:
            continue
        out.add(tuple(v for v in t if v not in sset))
    return out


def extend_link_form(
    complex_: FilteredComplex, table: AssociationTable, v: int
) -> np.ndarray:
    """Link-form extension; agrees with ``tdabc.classifier.extend`` on any complex."""
    if (v,) not in complex_:
        raise SimplexNotFound(f"vertex {v} is not in the complex")
    scores = np.zeros(table.n_classes)
    for sigma in complex_.link((v,)):
        phi = associate(table, sigma)
        if not phi.any():
            continue
        joined = tuple(sorted(sigma + (v,)))
        scores += phi / max(complex_.value(joined), EPSILON_FLOOR)
    return scores


def handle_isolated(table: AssociationTable, v: int, epsilon_death: float, dist: np.ndarray,
                    extensions: Mapping[int, np.ndarray]) -> np.ndarray:
    """Distance-ball vote for a vertex with an empty link.

    Every vertex within twice ``epsilon_death`` contributes at inverse
    distance: training vertices their one-hot label, test vertices the
    extension vector they received themselves (their row of ``extensions``).
    """
    scores = np.zeros(table.n_classes)
    row = dist[v]
    for u in np.flatnonzero(row <= 2.0 * epsilon_death):
        u = int(u)
        if u == v:
            continue
        w = 1.0 / max(float(row[u]), EPSILON_FLOOR)
        lab = table.training.get(u)
        if lab is not None:
            scores[lab] += w
        elif u in extensions:
            scores += w * extensions[u]
    return scores


def choose_label(scores: np.ndarray, seed) -> int | None:
    """Index of the largest score; None when all zero; ties drawn uniformly
    from ``np.random.default_rng(seed)``, which is built only on a tie."""
    top = scores.max() if scores.size else 0.0
    if top <= 0.0:
        return None
    ties = np.flatnonzero(scores == top)
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[np.random.default_rng(seed).integers(len(ties))])


def predict(
    table: AssociationTable, v: int, scores: np.ndarray, seed: int, provenance: str
) -> tuple:
    """Every classifier's rule from scores to label: ties seeded by ``[seed, v]``,
    all-zero scores fall back to the majority class at uniform probability.
    One (vertex, label, scores, probability, provenance) tuple, in the form
    ``conftest.prediction_rows`` gives a record."""
    label = choose_label(scores, [seed, v])
    if label is None:
        label, provenance = majority_class(table), PROVENANCE_FALLBACK
        probability = np.full(table.n_classes, 1.0 / table.n_classes)
    else:
        probability = scores / scores.sum()
    return (v, label, tuple(float(x) for x in scores),
            tuple(float(x) for x in probability), provenance)


def _gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    mat = mat.copy()
    n_rows, n_cols = mat.shape
    rank = 0
    for c in range(n_cols):
        hits = np.flatnonzero(mat[rank:, c])
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        others = np.flatnonzero(mat[:, c])
        others = others[others != rank]
        if others.size:
            mat[others] ^= mat[rank]
        rank += 1
        if rank == n_rows:
            break
    return rank


def betti_oracle(complex_: FilteredComplex, epsilon: float, dim: int) -> int:
    """Betti number at scale ``epsilon`` from dense boundary-map ranks."""
    eps = float(epsilon)
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for s in complex_.order:
        if complex_.value(s) <= eps:
            grouped.setdefault(len(s) - 1, []).append(s)
    for q, members in grouped.items():
        if len(members) > _ORACLE_DIM_CAP:
            raise CapacityExceeded(
                f"{len(members)} simplices of dimension {q}; the oracle is for small complexes"
            )

    def boundary_matrix(q: int) -> np.ndarray:
        cols = grouped.get(q, [])
        rows = grouped.get(q - 1, [])
        mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        if not rows or not cols:
            return mat
        rowpos = {s: i for i, s in enumerate(rows)}
        for j, s in enumerate(cols):
            for f in combinations(s, q):
                mat[rowpos[f], j] = 1
        return mat

    n_dim = len(grouped.get(dim, []))
    if n_dim == 0:
        return 0
    rank_down = _gf2_rank(boundary_matrix(dim)) if dim > 0 else 0
    rank_up = _gf2_rank(boundary_matrix(dim + 1))
    return n_dim - rank_down - rank_up


def homology_reduce(complex_: FilteredComplex) -> Diagram:
    """Persistence by the standard boundary-matrix reduction over Z/2 with the
    lowest-one rule, top dimension first, clearing columns already paired;
    columns are big-int bitsets indexed per dimension."""
    order = complex_.order
    m = len(order)
    if m == 0:
        return Diagram((), 0.0)
    values = [complex_.value(s) for s in order]
    maxf = values[-1]

    by_dim: dict[int, list[int]] = {}
    for idx, s in enumerate(order):
        by_dim.setdefault(len(s) - 1, []).append(idx)
    top = max(by_dim)

    pairs: list[tuple[int, int]] = []
    cleared: set[int] = set()
    for q in range(top, 0, -1):
        if q not in by_dim or (q - 1) not in by_dim:
            continue
        rows = by_dim[q - 1]
        rowpos = {order[g]: i for i, g in enumerate(rows)}
        lows: dict[int, int] = {}  # local row -> reduced column bitset
        for j in by_dim[q]:
            if j in cleared:
                continue
            col = 0
            for f in facets(order[j]):
                col ^= 1 << rowpos[f]
            while col:
                i = col.bit_length() - 1
                other = lows.get(i)
                if other is None:
                    break
                col ^= other
            if col:
                i = col.bit_length() - 1
                lows[i] = col
                g = rows[i]
                pairs.append((g, j))
                cleared.add(g)

    deaths = {j for _, j in pairs}
    killed = {i for i, _ in pairs}
    intervals = [
        PersistenceInterval(len(order[i]) - 1, values[i], values[j]) for i, j in pairs
    ]
    for j in range(m):
        if j in deaths or j in killed:
            continue
        intervals.append(PersistenceInterval(len(order[j]) - 1, values[j], math.inf))
    intervals.sort(key=lambda d: (d.dim, d.birth, d.death))
    return Diagram(tuple(intervals), float(maxf))


def dealt_splits(
    labels: np.ndarray, plan: FoldPlan
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(repeat, fold, train indices, test indices) tuples, each class's
    shuffled members dealt into per-fold lists and each list sorted."""
    labels = np.asarray(labels)
    n = len(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() < 2:
        small = classes[np.argmin(counts)]
        raise DegenerateClass(f"class {small} has {counts.min()} member(s)")
    if counts.max() < plan.folds:
        # Each class is dealt from fold 0 on, so the last folds would be empty.
        raise InvalidConfig(
            f"folds is {plan.folds} but the largest class has {counts.max()} members, "
            "so some test folds would be empty"
        )
    if counts.min() < plan.folds:
        warnings.warn(
            f"smallest class has {counts.min()} members for {plan.folds} folds; "
            "stratification is best-effort",
            stacklevel=2,
        )
    out = []
    for repeat in range(plan.repeats):
        rng = np.random.default_rng([plan.seed, repeat])
        buckets: list[list[int]] = [[] for _ in range(plan.folds)]
        for c in classes:
            members = np.flatnonzero(labels == c)
            rng.shuffle(members)
            for pos, idx in enumerate(members):
                buckets[pos % plan.folds].append(int(idx))
        for fold, bucket in enumerate(buckets):
            test = np.array(sorted(bucket), dtype=int)
            mask = np.ones(n, dtype=bool)
            mask[test] = False
            out.append((repeat, fold, np.flatnonzero(mask), test))
    return out


@dataclass(frozen=True)
class BinaryRates:
    tnr: float
    fpr: float
    recall: float
    precision: float
    fpr_conventional: float
    degenerate: tuple[str, ...] = ()


def binary_rates(
    truth: Sequence[int], predicted: Sequence[int], positive: int
) -> BinaryRates:
    """One-vs-rest confusion rates; empty denominators give 0 and a flag."""
    actual = np.asarray(truth) == positive
    called = np.asarray(predicted) == positive
    tp = int(np.count_nonzero(actual & called))
    fp = int(np.count_nonzero(~actual & called))
    fn = int(np.count_nonzero(actual & ~called))
    tn = int(np.count_nonzero(~actual & ~called))
    flags = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    tnr = ratio(tn, tn + fp, "tnr")
    fpr = ratio(fp, tp + fp, "fpr")
    recall = ratio(tp, tp + fn, "recall")
    precision = ratio(tp, tp + fp, "precision")
    fpr_conv = ratio(fp, fp + tn, "fpr_conventional")
    return BinaryRates(tnr, fpr, recall, precision, fpr_conv, tuple(flags))


def f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def gmean(tnr: float, recall: float) -> float:
    return math.sqrt(tnr * recall)


def _binary_auc(scores: np.ndarray, positive_mask: np.ndarray) -> float:
    pos = scores[positive_mask][:, None]
    neg = scores[~positive_mask][None, :]
    if pos.size == 0 or neg.size == 0:
        return math.nan
    # Mann-Whitney U: positive-negative pairs won, ties counting one half.
    u = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(u) / (pos.size * neg.size)


def roc_auc_per_class(probabilities: np.ndarray, truth: np.ndarray) -> list[float]:
    """One-vs-rest AUC per class; nan when a class lacks positives or negatives."""
    truth = np.asarray(truth)
    return [
        _binary_auc(probabilities[:, c], truth == c)
        for c in range(probabilities.shape[1])
    ]


def pr_auc(probabilities: np.ndarray, truth: np.ndarray, positive: int) -> float:
    """Average precision of the one-vs-rest ranking for ``positive``."""
    truth = np.asarray(truth)
    scores = np.asarray(probabilities)[:, positive]
    relevant = (truth == positive).astype(float)
    n_pos = relevant.sum()
    if n_pos == 0:
        return math.nan
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    relevant = relevant[order]
    # Evaluate precision/recall once per distinct threshold.
    last_of_group = np.append(np.flatnonzero(np.diff(scores)), len(scores) - 1)
    tp = np.cumsum(relevant)[last_of_group]
    precision = tp / (last_of_group + 1.0)
    recall = tp / n_pos
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
