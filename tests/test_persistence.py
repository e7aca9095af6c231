"""Unit and property tests for persistence computation.

``boundary_reduce`` reduces coboundary columns with clearing; two independent
routes check it.  The homology oracle reduces boundary columns and must give
the same ``Diagram``, interval order and ``max_filtration`` included, and the
rank-based Betti oracle must count the same classes alive at every scale.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdabc.persistence as persistence
from tdabc.cli import main
from tdabc.complexes import FilteredComplex
from tdabc.datasets import LabeledDataset, save_csv
from tdabc.errors import CapacityExceeded
from tdabc.persistence import (
    Diagram,
    PersistenceInterval,
    boundary_reduce,
    intervals_above_dim_zero,
)
from tdabc.rips import RipsConfig, build_rips, pairwise_distances

from conftest import UNIT_SQUARE, random_cloud, random_monotone_complex, unit_square_complex
from oracles import betti_oracle, diagram_of, homology_reduce


def betti_from_diagram(diagram: Diagram, epsilon: float, dim: int) -> int:
    """Number of intervals of the given dimension alive at epsilon."""
    return sum(
        1
        for d in diagram.intervals
        if d.dim == dim and d.birth <= epsilon < d.death
    )


# ---------------------------------------------------------------------------
# Golden small cases
# ---------------------------------------------------------------------------


def test_single_point_diagram():
    cx = FilteredComplex([((0,), 0.0)])
    diagram = boundary_reduce(cx)
    assert len(diagram.intervals) == 1
    (bar,) = diagram.intervals
    assert bar.dim == 0
    assert bar.birth == 0.0
    assert bar.immortal


def test_two_points_one_edge_pairing():
    cx = FilteredComplex([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
    diagram = boundary_reduce(cx)
    h0 = sorted([d for d in diagram.intervals if d.dim == 0], key=lambda d: d.death)
    assert len(h0) == 2
    assert (h0[0].birth, h0[0].death) == (0.0, 1.0)
    assert h0[1].immortal


def test_elder_rule_golden_diagram():
    """Vertices born at 0, 1, 2 and 0.5: each merging edge kills the younger
    component, at the edge's value and with that component's birth, and the
    two components left are immortal with their own births."""
    cx = FilteredComplex([((0,), 0.0), ((1,), 1.0), ((2,), 2.0), ((3,), 0.5),
                          ((0, 1), 3.0), ((1, 2), 4.0)])
    diagram = boundary_reduce(cx)
    assert diagram.dims.tolist() == [0, 0, 0, 0]
    assert diagram.births.tolist() == [0.0, 0.5, 1.0, 2.0]
    assert diagram.deaths.tolist() == [math.inf, math.inf, 3.0, 4.0]


def test_unit_square_golden_diagram():
    cx = unit_square_complex()
    diagram = boundary_reduce(cx)
    h0 = [d for d in diagram.intervals if d.dim == 0]
    finite_h0 = sorted((d for d in h0 if not d.immortal), key=lambda d: (d.birth, d.death))
    assert len(h0) == 4
    assert len(finite_h0) == 3
    for d in finite_h0:
        assert d.birth == 0.0
        assert d.death == pytest.approx(1.0, abs=1e-9)
    h1 = [d for d in diagram.intervals if d.dim == 1 and d.death > d.birth]
    assert len(h1) == 1
    assert h1[0].birth == pytest.approx(1.0, abs=1e-9)
    assert h1[0].death == pytest.approx(math.sqrt(2), abs=1e-9)


def test_circle_has_one_dominant_loop():
    angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    cx = build_rips(pairwise_distances(pts), RipsConfig(max_dim=2, max_edge=float("inf")))
    diagram = boundary_reduce(cx)
    loops = [d for d in diagram.intervals if d.dim == 1 and d.death > d.birth]
    assert len(loops) == 1


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("max_dim", [2, 3])
def test_coboundaries_are_built_above_the_vertices_only(monkeypatch, max_dim):
    """Dimension 0 is found by union-find, so coboundary columns are built
    for the q-simplices with 1 <= q < top alone: one call per such q."""
    widths = []  # each call's facet count per cofacet, q + 2
    build = persistence._coboundaries

    def counted(facet_pos, n_columns):
        widths.append(facet_pos.shape[1])
        return build(facet_pos, n_columns)

    monkeypatch.setattr(persistence, "_coboundaries", counted)
    cx = unit_square_complex(max_dim)
    assert cx.dimension == max_dim
    boundary_reduce(cx)
    assert widths == list(range(3, max_dim + 2))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_every_simplex_is_accounted_for(seed):
    """Each simplex either creates or destroys: 2×finite + immortal = total."""
    cx = random_monotone_complex(np.random.default_rng(seed))
    diagram = boundary_reduce(cx)
    finite = sum(1 for d in diagram.intervals if not d.immortal)
    immortal = sum(1 for d in diagram.intervals if d.immortal)
    assert 2 * finite + immortal == len(cx.order)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_euler_characteristic_consistency(seed):
    """Alternating simplex counts equal alternating immortal-interval counts."""
    cx = random_monotone_complex(np.random.default_rng(seed))
    diagram = boundary_reduce(cx)
    euler_simplices = sum((-1) ** (len(s) - 1) for s in cx.order)
    euler_bars = sum((-1) ** d.dim for d in diagram.intervals if d.immortal)
    assert euler_simplices == euler_bars


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_births_never_exceed_deaths(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    for d in boundary_reduce(cx).intervals:
        assert d.birth <= d.death


def test_zero_length_intervals_retained_internally():
    # The edge connects immediately: a zero-length component bar.
    cx = FilteredComplex([((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)])
    diagram = boundary_reduce(cx)
    zero_bars = [d for d in diagram.intervals if d.death == d.birth]
    assert len(zero_bars) == 1


# ---------------------------------------------------------------------------
# Independent-oracle agreement
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_reduction_matches_rank_oracle(seed):
    rng = np.random.default_rng(seed)
    dist = pairwise_distances(random_cloud(rng, max_points=7))
    cx = build_rips(dist, RipsConfig(max_dim=3, max_edge=float("inf")))
    diagram = boundary_reduce(cx)
    values = sorted({cx.value(s) for s in cx.order})
    for epsilon in values:
        for dim in range(4):
            assert betti_from_diagram(diagram, epsilon, dim) == betti_oracle(
                cx, epsilon, dim
            )


def _relabeled(cx: FilteredComplex, scale: int, shift: float) -> FilteredComplex:
    # Vertex ``v`` becomes ``scale * v`` and every value rises by ``shift``;
    # the filtration order lists each simplex after its facets.
    return FilteredComplex(
        (tuple(scale * v for v in s), cx.value(s) + shift) for s in cx.order
    )


@st.composite
def complexes_for_the_oracle(draw) -> FilteredComplex:
    kind = draw(st.sampled_from(["monotone", "rips", "empty", "vertex"]))
    if kind == "empty":
        return FilteredComplex()
    if kind == "vertex":
        return FilteredComplex([((draw(st.integers(0, 10**6)),), draw(st.floats(0.0, 2.0)))])
    if kind == "monotone":
        cx = random_monotone_complex(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        # Integer grid points: duplicates give zero-length bars, and equal
        # distances tie simplices of one value.  A small cap can leave the
        # complex with no simplex at ``max_dim``.
        points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=1, max_size=9))
        dist = pairwise_distances(np.array(points, dtype=float))
        cap = draw(st.sampled_from([float("inf"), *np.unique(dist).tolist()]))
        cx = build_rips(dist, RipsConfig(max_dim=draw(st.integers(2, 4)), max_edge=cap))
    scale = draw(st.sampled_from([1, 1000, 10**12]))
    shift = draw(st.sampled_from([0.0, 0.25, 3.0]))
    if scale != 1 or shift:
        cx = _relabeled(cx, scale, shift)
    # A restriction at stored values: a sublevel can drop vertices valued
    # above it and a band those outside its simplices' closure, so its
    # vertex ranks may skip numbers.
    levels = sorted({cx.value(s) for s in cx.order})
    restriction = draw(st.sampled_from(["none", "sublevel", "band"]))
    if restriction == "sublevel":
        return cx.subcomplex_at(draw(st.sampled_from(levels)))
    if restriction == "band":
        birth, death = sorted(draw(st.lists(st.sampled_from(levels), min_size=2, max_size=2)))
        return cx.band(birth, death)
    return cx


@given(complexes_for_the_oracle())
@settings(max_examples=300, deadline=None)
def test_boundary_reduce_equals_the_homology_oracle(cx):
    assert boundary_reduce(cx) == homology_reduce(cx)


def _apparent_counts(cx: FilteredComplex) -> tuple[Diagram, list[tuple[int, int]]]:
    # The diagram, and for each dimension that ``_reduce`` reads, its live
    # columns with a cofacet and how many of them are apparent: the column's
    # earliest cofacet has it as its latest facet.
    counts = []
    reduce = persistence._reduce

    def counted(births, deaths, starts, cofacets, latest, live):
        columns = [c for c in np.flatnonzero(live).tolist() if starts[c] < starts[c + 1]]
        apparent = [c for c in columns if latest[cofacets[starts[c]]] == c]
        counts.append((len(columns), len(apparent)))
        return reduce(births, deaths, starts, cofacets, latest, live)

    with mock.patch.object(persistence, "_reduce", counted):
        diagram = boundary_reduce(cx)
    return diagram, counts


def _rips_on_edges(n: int, edges: dict[tuple[int, int], float], max_dim: int) -> FilteredComplex:
    # The Rips complex whose edges are ``edges``; every other pair lies past the cap.
    dist = np.full((n, n), 100.0)
    np.fill_diagonal(dist, 0.0)
    for (a, b), value in edges.items():
        dist[a, b] = dist[b, a] = value
    return build_rips(dist, RipsConfig(max_dim=max_dim, max_edge=99.0))


@pytest.mark.parametrize("n, edges, want", [
    # A solid tetrahedron whose edges enter one at a time.
    (4, {(0, 1): 5, (0, 2): 1, (0, 3): 3, (1, 2): 2, (1, 3): 6, (2, 3): 4}, [(3, 3), (1, 1)]),
    # A solid 4-simplex: 6 live edges, 4 live triangles, 1 live tetrahedron.
    (5, {(0, 1): 2, (0, 2): 1, (0, 3): 8, (0, 4): 3, (1, 2): 10, (1, 3): 9, (1, 4): 7,
         (2, 3): 5, (2, 4): 4, (3, 4): 6}, [(6, 6), (4, 4), (1, 1)]),
])
def test_boundary_reduce_equals_the_oracle_when_every_column_is_apparent(n, edges, want):
    """Every live column is paired before the reduction loop, which visits none."""
    cx = _rips_on_edges(n, edges, max_dim=n - 1)
    diagram, counts = _apparent_counts(cx)
    assert counts == want
    assert diagram == homology_reduce(cx)


@pytest.mark.parametrize("pages", [2, 5])
def test_boundary_reduce_equals_the_oracle_when_one_column_is_apparent(pages):
    """A book of triangles (0, 1, v) on the spine (0, 1), which enters last.
    Each triangle's latest edge is the spine, so only the spine is apparent
    and the loop reduces the other edge columns.  No complex can have none:
    the latest facet of a cofacet never kills a class (its boundary is the
    sum of the other facets'), so it is a live column, and following each
    column's earliest cofacet to that cofacet's latest facet ends at an
    apparent column."""
    edges = {(0, 1): 3.0}
    for v in range(2, pages + 2):
        edges[0, v], edges[1, v] = 1.0, 2.0
    cx = _rips_on_edges(pages + 2, edges, max_dim=2)
    diagram, counts = _apparent_counts(cx)
    assert counts == [(pages, 1)]
    assert diagram == homology_reduce(cx)


@given(complexes_for_the_oracle())
@settings(max_examples=100, deadline=None)
def test_every_reduced_dimension_pairs_an_apparent_column(cx):
    _, counts = _apparent_counts(cx)
    assert all(apparent for columns, apparent in counts if columns)


def test_oracle_rejects_oversized_input():
    rng = np.random.default_rng(1)
    dist = pairwise_distances(rng.normal(size=(60, 2)))
    cx = build_rips(dist, RipsConfig(max_dim=3, budget=300_000, max_edge=None))
    with pytest.raises(CapacityExceeded):
        betti_oracle(cx, cx.max_value, 1)


# ---------------------------------------------------------------------------
# Candidate filtering
# ---------------------------------------------------------------------------


def test_candidates_exclude_dim_zero_and_zero_length():
    maxf = 2.0
    diagram = diagram_of(
        (
            PersistenceInterval(0, 0.0, 1.0),
            PersistenceInterval(1, 0.5, 0.5),
            PersistenceInterval(1, 0.5, 1.5),
            PersistenceInterval(2, 1.0, float("inf")),
            PersistenceInterval(1, maxf, float("inf")),  # truncates to zero length
        ),
        maxf,
    )
    got = intervals_above_dim_zero(diagram)
    assert tuple(got) == (
        PersistenceInterval(1, 0.5, 1.5),
        PersistenceInterval(2, 1.0, float("inf")),
    )
    assert intervals_above_dim_zero(diagram) is got  # computed once per diagram


def test_slotted_intervals_pickle_hash_compare_and_replace():
    d = PersistenceInterval(1, 0.5, float("inf"))
    assert not hasattr(d, "__dict__")
    again = pickle.loads(pickle.dumps(d))
    assert again == d and hash(again) == hash(d) and again.immortal
    assert dataclasses.replace(d, death=2.0) == PersistenceInterval(1, 0.5, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.death = 1.0


def test_unit_square_has_single_candidate():
    cx = unit_square_complex()
    diagram = boundary_reduce(cx)
    candidates = intervals_above_dim_zero(diagram)
    assert len(candidates) == 1
    assert candidates[0].dim == 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP Known defect 1: candidates keep the immortal classes of the cap "
    "dimension, which no simplex above the cap exists to kill, so selection "
    "picks one of them and recovers the whole complex"))
@pytest.mark.parametrize("max_dim", [1, 2, 3])
def test_no_candidate_of_a_rips_diagram_reaches_the_cap_dimension(max_dim):
    dist = pairwise_distances(random_cloud(np.random.default_rng(max_dim), max_points=12))
    diagram = boundary_reduce(build_rips(dist, RipsConfig(max_dim=max_dim)))
    assert all(d.dim < max_dim for d in diagram.candidates)


# ---------------------------------------------------------------------------
# Written diagram files
# ---------------------------------------------------------------------------


def write_unit_square_diagram(tmp_path):
    """Run ``tdabc persistence`` on the unit square; the paths it writes."""
    points = tmp_path / "square.csv"
    save_csv(LabeledDataset(UNIT_SQUARE, np.zeros(len(UNIT_SQUARE), dtype=int), "square"),
             points)
    out = tmp_path / "out"
    assert main(["persistence", "--dataset", str(points), "--max-edge", "inf",
                 "--max-dim", "2", "--out", str(out)]) == 0
    return out / "square.diagram.csv", out / "square.diagram.json"


def test_diagram_csv_format(tmp_path):
    diagram = boundary_reduce(unit_square_complex())
    path, _ = write_unit_square_diagram(tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dim,birth,death"
    assert len(lines) == int(np.count_nonzero(diagram.dims < 2)) + 1
    assert any(line.endswith(",inf") for line in lines[1:])


def test_diagram_json_contains_max_filtration(tmp_path):
    diagram = boundary_reduce(unit_square_complex())
    _, path = write_unit_square_diagram(tmp_path)
    payload = json.loads(path.read_text())
    assert payload["max_filtration"] == pytest.approx(math.sqrt(2))
    assert len(payload["intervals"]) + payload["left_out_at_max_dim"] == len(diagram.intervals)
