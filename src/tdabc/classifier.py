"""Transductive label propagation over a persistence-selected sub-complex.

Training vertices carry one-hot label vectors.  A test vertex collects, for
every coface of its vertex in the selected sub-complex, the labels of the
other vertices weighted by the inverse filtration value of that coface.
Vertices the propagation cannot reach fall back to distance-ball voting,
then to a shortest-reach walk through unlabeled neighborhoods, then to the
majority training class.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .complexes import FilteredComplex, Simplex, facets
from .errors import InvalidAssociation, NoLabeledData, SimplexNotFound
from .persistence import Diagram, intervals_above_dim_zero
from .selection import SelectionPolicy, recover, select

EPSILON_FLOOR = 1e-12

PROVENANCE_LINK = "link"
PROVENANCE_ISOLATED = "isolated"
PROVENANCE_UNLABELED = "unlabeled_link"
PROVENANCE_FALLBACK = "global_fallback"


@dataclass(frozen=True)
class AssociationTable:
    """Which vertices are labeled with what, and which await labels."""

    training: Mapping[int, int]
    test_vertices: frozenset[int]
    n_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "test_vertices", frozenset(self.test_vertices))
        overlap = set(self.training) & self.test_vertices
        if overlap:
            raise InvalidAssociation(f"vertices {sorted(overlap)} are both training and test")
        if self.n_classes < 2:
            raise InvalidAssociation("need at least two classes")
        for v, lab in self.training.items():
            if not 0 <= lab < self.n_classes:
                raise InvalidAssociation(f"label {lab} of vertex {v} out of range")


def associate(table: AssociationTable, s: Simplex) -> np.ndarray:
    """Sum of one-hot label vectors over the simplex's training vertices."""
    out = np.zeros(table.n_classes)
    for v in s:
        lab = table.training.get(v)
        if lab is not None:
            out[lab] += 1.0
    return out


def _extension(
    complex_: FilteredComplex, table: AssociationTable, vertices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Star-form score rows of ``vertices`` and their proper-coface counts.

    Each row of ``complex_.rows`` holding a queried vertex adds the labels of
    its other vertices over its value.  Hits are visited row by row, then
    column by column, which is the star's order: coface by filtration order,
    then vertex within the coface.  ``np.bincount`` adds weights in input
    order, so every sum equals the per-vertex star loop's bit for bit.
    """
    queried, back = np.unique(np.asarray(vertices, dtype=np.int32), return_inverse=True)
    matrix, values = complex_.rows
    top = max(int(matrix.max(initial=-1)), int(queried.max(initial=-1)),
              max(table.training, default=-1))
    # Lookups by vertex id; the padding id -1 reads the last, unused entry.
    slot = np.full(top + 2, -1, dtype=np.int32)
    slot[queried] = np.arange(queried.size, dtype=np.int32)
    label = np.full(top + 2, -1, dtype=np.int32)
    label[np.fromiter(table.training, dtype=np.int32)] = np.fromiter(
        table.training.values(), dtype=np.int32
    )
    hit_row, hit_col = np.nonzero((slot >= 0)[matrix])
    owner = slot[matrix[hit_row, hit_col]]
    others = label[matrix[hit_row]]
    others[np.arange(hit_row.size), hit_col] = -1  # the vertex's own column
    hit, col = np.nonzero(others >= 0)
    weights = 1.0 / np.maximum(values[hit_row[hit]], EPSILON_FLOOR)
    scores = np.bincount(
        owner[hit] * table.n_classes + others[hit, col],
        weights=weights,
        minlength=queried.size * table.n_classes,
    ).reshape(queried.size, table.n_classes)
    cofaces = np.bincount(owner, minlength=queried.size)
    return scores[back], cofaces[back]


def extend_all(
    complex_: FilteredComplex, table: AssociationTable, vertices: Sequence[int]
) -> np.ndarray:
    """Star-form extension of every vertex in ``vertices``, one score row each:
    each coface of the vertex adds the labels of its other vertices over the
    coface's value.  A vertex outside the complex gets a zero row."""
    return _extension(complex_, table, vertices)[0]


def extend(complex_: FilteredComplex, table: AssociationTable, v: int) -> np.ndarray:
    """Star-form extension of one vertex of the complex."""
    if (v,) not in complex_:
        raise SimplexNotFound(f"vertex {v} is not in the complex")
    return extend_all(complex_, table, [v])[0]


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


def handle_isolated(
    table: AssociationTable,
    v: int,
    epsilon_death: float,
    dist: np.ndarray,
    extensions: Mapping[int, np.ndarray],
) -> np.ndarray:
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


def handle_unlabeled_link(
    complex_: FilteredComplex, table: AssociationTable, v: int
) -> np.ndarray:
    """Shortest-reach walk from ``v`` through fully unlabeled simplices.

    The frontier starts at the star of ``v`` with filtration values as
    priorities.  Popping a simplex collects the labels of its cofaces,
    discounted by accumulated priority plus the coface's value; unvisited
    cofaces and faces made only of test vertices join the frontier.
    """
    scores = np.zeros(table.n_classes)
    if (v,) not in complex_:
        return scores
    counter = 0
    heap: list[tuple[float, int, Simplex]] = []
    visited: set[Simplex] = set()
    for s in complex_.star((v,)):
        heapq.heappush(heap, (complex_.value(s), counter, s))
        counter += 1
        visited.add(s)
    while heap:
        rho, _, tau = heapq.heappop(heap)
        for mu in complex_.star(tau):
            weight = 1.0 / max(rho + complex_.value(mu), EPSILON_FLOOR)
            phi = associate(table, mu)
            if phi.any():
                scores += phi * weight
            elif mu not in visited and all(u in table.test_vertices for u in mu):
                heapq.heappush(heap, (rho + complex_.value(mu), counter, mu))
                counter += 1
                visited.add(mu)
        for f in facets(tau):
            if f in visited or f not in complex_:
                continue
            if all(u in table.test_vertices for u in f):
                heapq.heappush(heap, (rho + complex_.value(f), counter, f))
                counter += 1
                visited.add(f)
    return scores


@dataclass(frozen=True)
class Prediction:
    vertex: int
    label: int
    scores: tuple[float, ...]
    probability: tuple[float, ...]
    provenance: str


def majority_class(table: AssociationTable) -> int:
    labels = np.fromiter(table.training.values(), dtype=np.intp, count=len(table.training))
    return int(np.argmax(np.bincount(labels, minlength=table.n_classes)))


def predict(
    table: AssociationTable, v: int, scores: np.ndarray, seed: int, provenance: str
) -> Prediction:
    """Every classifier's rule from scores to label: ties seeded by ``[seed, v]``,
    all-zero scores fall back to the majority class at uniform probability."""
    label = choose_label(scores, [seed, v])
    if label is None:
        label, provenance = majority_class(table), PROVENANCE_FALLBACK
        probability = np.full(table.n_classes, 1.0 / table.n_classes)
    else:
        probability = scores / scores.sum()
    return Prediction(v, label, tuple(float(x) for x in scores),
                      tuple(float(x) for x in probability), provenance)


def classify_all(
    complex_: FilteredComplex,
    diagram: Diagram,
    table: AssociationTable,
    policy: SelectionPolicy,
    dist: np.ndarray,
) -> list[Prediction]:
    """Predictions for every test vertex, in vertex order."""
    if not table.training:
        raise NoLabeledData("classification needs at least one labeled vertex")
    covered = len(table.training) + len(table.test_vertices)
    if covered != complex_.vertex_count:
        raise ValueError(
            f"table covers {covered} vertices, complex has {complex_.vertex_count}"
        )

    if intervals_above_dim_zero(diagram):
        rng = np.random.default_rng(policy.rng_seed)
        chosen = select(diagram, policy, rng)
        epsilon_death = min(chosen.death, diagram.max_filtration)
        sub = recover(complex_, chosen, policy)
    else:
        # Nothing above dimension zero: use the whole complex.
        sub = complex_
        epsilon_death = diagram.max_filtration

    tests = sorted(table.test_vertices)
    rows, cofaces = _extension(sub, table, tests)
    extensions = dict(zip(tests, rows))

    predictions: list[Prediction] = []
    for v, scores, n_cofaces in zip(tests, rows, cofaces):
        provenance = PROVENANCE_LINK
        if not scores.any():
            if n_cofaces == 0:
                scores = handle_isolated(table, v, epsilon_death, dist, extensions)
                provenance = PROVENANCE_ISOLATED
            else:
                scores = handle_unlabeled_link(sub, table, v)
                provenance = PROVENANCE_UNLABELED
        predictions.append(predict(table, v, scores, policy.rng_seed, provenance))
    return predictions
