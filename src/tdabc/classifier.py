"""Transductive label propagation over a persistence-selected sub-complex.

Training vertices carry one-hot label vectors.  A test vertex collects, for
every coface of its vertex in the selected sub-complex, the labels of the
other vertices weighted by the inverse filtration value of that coface.
Test vertices without a coface take one distance-ball vote as a block; a
test vertex whose cofaces carry no label walks through its unlabeled
neighborhood.  The extension, the ball vote and the KNN baseline all sum
their votes through ``tally``.  One call of ``predict`` then labels all
test vertices from their score matrix: a row's largest score wins, a tie is
drawn per vertex, and a row still without a positive score takes the
majority training class.  Its result is one record array, a row per test
vertex with the fields ``vertex``, ``label``, ``scores``, ``probability``
and ``provenance``; a row reads as ``p.label``, a field as ``preds.label``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .complexes import FilteredComplex, Simplex, facets
from .errors import InvalidAssociation, InvalidConfig, NoLabeledData
from .persistence import Diagram, intervals_above_dim_zero
from .selection import SelectionPolicy, interval_epsilon, recover, select

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


def extend(
    complex_: FilteredComplex, table: AssociationTable, vertices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Star-form score rows of ``vertices`` and their proper-coface counts; a
    vertex outside the complex gets a zero row and no coface.

    Each row of ``complex_.rows`` holding a queried vertex adds the labels of
    its other vertices over its value.  Hits are visited row by row, then
    column by column, which is the star's order: coface by filtration order,
    then vertex within the coface, so ``tally`` sums them as the per-vertex
    star loop does.
    """
    queried, back = np.unique(np.asarray(vertices, dtype=np.int64), return_inverse=True)
    matrix, values, ids = complex_.rows
    slot = _by_rank(ids, queried, np.arange(queried.size))
    label = _by_rank(ids, np.fromiter(table.training, dtype=np.int64),
                     np.fromiter(table.training.values(), dtype=np.int64))
    hit_row, hit_col = np.nonzero((slot >= 0)[matrix])
    owner = slot[matrix[hit_row, hit_col]]
    others = label[matrix[hit_row]]
    others[np.arange(hit_row.size), hit_col] = -1  # the vertex's own column
    labeled = others >= 0
    per_row = np.count_nonzero(labeled, axis=1)
    weights = np.repeat(1.0 / np.maximum(values[hit_row], EPSILON_FLOOR), per_row)
    scores = tally(np.repeat(owner, per_row), others[labeled], weights,
                   queried.size, table.n_classes)
    cofaces = np.bincount(owner, minlength=queried.size)
    return scores[back], cofaces[back]


def tally(rows: np.ndarray, classes: np.ndarray, weights: np.ndarray,
          n_rows: int, n_classes: int) -> np.ndarray:
    """The ``(n_rows, n_classes)`` sums of ``weights`` by (row, class) cell.
    ``np.bincount`` adds the weights in input order, so each cell equals a
    loop's running sum over the same votes bit for bit."""
    cells = rows * n_classes
    cells += classes  # in place: no third index-sized array
    return np.bincount(cells, weights=weights,
                       minlength=n_rows * n_classes).reshape(n_rows, n_classes)


def _by_rank(ids: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Lookup by rank among the ascending ``ids``: each key's value where the key
    is found, else -1; the padding rank -1 reads the last, unused entry."""
    out = np.full(ids.size + 1, -1, dtype=np.int32)
    at = np.searchsorted(ids, keys)
    found = at < ids.size
    found[found] = ids[at[found]] == keys[found]
    out[at[found]] = values[found]
    return out


def handle_isolated(vertices: Sequence[int], epsilon_death: float, dist: np.ndarray,
                    votes: np.ndarray) -> np.ndarray:
    """Distance-ball score rows of ``vertices``, which have no coface.

    Every other vertex ``u`` within twice ``epsilon_death`` of a vertex adds
    its vote row ``votes[u]`` at inverse distance: a training vertex its
    one-hot label, a test vertex the extension row it received itself.
    """
    vertices = np.asarray(vertices, dtype=np.intp)
    near = dist[vertices] <= 2.0 * epsilon_death
    near[np.arange(vertices.size), vertices] = False
    row, u = np.nonzero(near)
    weights = 1.0 / np.maximum(dist[vertices[row], u], EPSILON_FLOOR)
    n_classes = votes.shape[1]
    return tally(np.repeat(row, n_classes), np.tile(np.arange(n_classes), row.size),
                 (weights[:, None] * votes[u]).ravel(), vertices.size, n_classes)


def handle_unlabeled_link(
    complex_: FilteredComplex, table: AssociationTable, v: int
) -> np.ndarray:
    """Shortest-reach walk from ``v`` through fully unlabeled simplices, out
    to the nearest labeled ring.

    The frontier starts at the star of ``v`` with filtration values as
    priorities.  Popping a simplex collects the labels of its cofaces,
    discounted by accumulated priority plus the coface's value; unvisited
    cofaces and faces made only of test vertices join the frontier.  The walk
    ends with the first popped simplex whose star adds a label, so ``v``
    takes the labels of its nearest labeled neighborhood, not a vote of the
    whole complex; later pops at that same priority are not taken.
    """
    scores = np.zeros(table.n_classes)
    if (v,) not in complex_:
        return scores
    heap: list[tuple[float, int, Simplex]] = []
    visited: set[Simplex] = set()

    def push(priority: float, s: Simplex) -> None:
        # Every push visits a new simplex, so ``len(visited)`` numbers the pushes.
        heapq.heappush(heap, (priority, len(visited), s))
        visited.add(s)

    for s in complex_.star((v,)):
        push(complex_.value(s), s)
    while heap and not scores.any():
        rho, _, tau = heapq.heappop(heap)
        for mu in complex_.star(tau):
            weight = 1.0 / max(rho + complex_.value(mu), EPSILON_FLOOR)
            phi = associate(table, mu)
            if phi.any():
                scores += phi * weight
            elif mu not in visited:  # every vertex of ``mu`` is a test vertex
                push(rho + complex_.value(mu), mu)
        for f in facets(tau):
            if f not in visited and all(u in table.test_vertices for u in f):
                push(rho + complex_.value(f), f)
    return scores


def majority_class(table: AssociationTable) -> int:
    labels = np.fromiter(table.training.values(), dtype=np.intp, count=len(table.training))
    return int(np.argmax(np.bincount(labels, minlength=table.n_classes)))


def predict(table: AssociationTable, vertices: Sequence[int], scores: np.ndarray,
            seed: int, provenance: Sequence[str] | str) -> np.recarray:
    """Every classifier's rule from a score row per vertex to its prediction:
    the largest score wins, a tie drawn from ``np.random.default_rng([seed, v])``
    built only for a tied row.  A row with no positive score falls back to the
    majority class at uniform probability; other rows normalize their scores.
    ``provenance`` names the rule behind each row, or one rule for all rows."""
    # In C order each row sums as its own 1-d sum does, bit for bit.
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    top = scores.max(axis=1)
    at_top = scores == top[:, None]
    labels = at_top.argmax(axis=1)
    fallback = top <= 0.0
    for i in np.flatnonzero(~fallback & (at_top.sum(axis=1) > 1)).tolist():
        ties = np.flatnonzero(at_top[i])
        labels[i] = ties[np.random.default_rng([seed, vertices[i]]).integers(len(ties))]
    labels[fallback] = majority_class(table)
    out = np.recarray(len(scores), dtype=[
        ("vertex", np.int64), ("label", np.int64), ("scores", np.float64, table.n_classes),
        ("probability", np.float64, table.n_classes), ("provenance", object),
    ])
    out.vertex = vertices
    out.label = labels
    out.scores = scores
    out.probability = np.divide(
        scores, scores.sum(axis=1, keepdims=True), where=~fallback[:, None],
        out=np.full_like(scores, 1.0 / table.n_classes),
    )
    # The shared constants, not a new string per row.
    out.provenance = provenance
    out.provenance[fallback] = PROVENANCE_FALLBACK
    return out


def classify_all(
    complex_: FilteredComplex,
    diagram: Diagram,
    table: AssociationTable,
    policy: SelectionPolicy,
    dist: np.ndarray,
    seed: int = 0,
) -> np.recarray:
    """``predict``'s records for every test vertex, in vertex order; ``seed``
    drives the ``rand`` selector's draw and the draws that break score ties."""
    if seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")
    if not table.training:
        raise NoLabeledData("classification needs at least one labeled vertex")
    if set(table.training) | table.test_vertices != set(complex_.vertex_ids.tolist()):
        raise InvalidAssociation("the table's vertex ids are not the complex's")

    if intervals_above_dim_zero(diagram):
        chosen = select(diagram, policy, np.random.default_rng(seed))
        epsilon_death = interval_epsilon(chosen, diagram.max_filtration, "death")
        sub = recover(complex_, chosen, policy)
    else:
        # Nothing above dimension zero: use the whole complex.
        sub = complex_
        epsilon_death = diagram.max_filtration

    tests = sorted(table.test_vertices)
    scores, cofaces = extend(sub, table, tests)
    votes = np.zeros((len(dist), table.n_classes))
    votes[tests] = scores
    votes[list(table.training), list(table.training.values())] = 1.0
    empty = ~scores.any(axis=1)
    isolated = empty & (cofaces == 0)
    scores[isolated] = handle_isolated(np.array(tests)[isolated], epsilon_death, dist, votes)
    for i in np.flatnonzero(empty & ~isolated).tolist():
        scores[i] = handle_unlabeled_link(sub, table, tests[i])
    # empty + isolated: 0 link, 1 unlabeled link, 2 isolated.
    kinds = np.array([PROVENANCE_LINK, PROVENANCE_UNLABELED, PROVENANCE_ISOLATED], dtype=object)
    provenance = kinds[empty.astype(np.intp) + isolated]
    return predict(table, tests, scores, seed, provenance)
