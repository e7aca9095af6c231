"""Unit and property tests for persistence computation.

The column-reduction engine and the rank-based Betti oracle are independent
implementations; their agreement on random complexes is the core safety net.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdabc.complexes import FilteredComplex
from tdabc.errors import CapacityExceeded
from tdabc.persistence import (
    Diagram,
    PersistenceInterval,
    betti_oracle,
    boundary_reduce,
    intervals_above_dim_zero,
    write_diagram_csv,
    write_diagram_json,
)
from tdabc.rips import RipsConfig, build_rips, pairwise_distances

from conftest import random_cloud, random_monotone_complex, unit_square_complex


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
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    diagram = boundary_reduce(cx)
    assert len(diagram.intervals) == 1
    (bar,) = diagram.intervals
    assert bar.dim == 0
    assert bar.birth == 0.0
    assert bar.immortal


def test_two_points_one_edge_pairing():
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    cx.insert((1,), 0.0)
    cx.insert((0, 1), 1.0)
    diagram = boundary_reduce(cx)
    h0 = sorted(diagram.in_dim(0), key=lambda d: d.death)
    assert len(h0) == 2
    assert (h0[0].birth, h0[0].death) == (0.0, 1.0)
    assert h0[1].immortal


def test_unit_square_golden_diagram():
    cx = unit_square_complex()
    diagram = boundary_reduce(cx)
    h0 = diagram.in_dim(0)
    finite_h0 = sorted((d for d in h0 if not d.immortal), key=lambda d: (d.birth, d.death))
    assert len(h0) == 4
    assert len(finite_h0) == 3
    for d in finite_h0:
        assert d.birth == 0.0
        assert d.death == pytest.approx(1.0, abs=1e-9)
    h1 = [d for d in diagram.in_dim(1) if d.death > d.birth]
    assert len(h1) == 1
    assert h1[0].birth == pytest.approx(1.0, abs=1e-9)
    assert h1[0].death == pytest.approx(math.sqrt(2), abs=1e-9)


def test_circle_has_one_dominant_loop():
    angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    cx = build_rips(pairwise_distances(pts), RipsConfig(max_dim=2, max_edge=float("inf")))
    diagram = boundary_reduce(cx)
    loops = [d for d in diagram.in_dim(1) if d.death > d.birth]
    assert len(loops) == 1


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


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
    euler_simplices = sum((-1) ** (len(s) - 1) for s in cx.simplices())
    euler_bars = sum((-1) ** d.dim for d in diagram.intervals if d.immortal)
    assert euler_simplices == euler_bars


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_births_never_exceed_deaths(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    for d in boundary_reduce(cx).intervals:
        assert d.birth <= d.death


def test_zero_length_intervals_retained_internally():
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    cx.insert((1,), 0.0)
    cx.insert((0, 1), 0.0)  # connects immediately: zero-length component bar
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
    values = sorted({cx.value(s) for s in cx.simplices()})
    for epsilon in values:
        for dim in range(4):
            assert betti_from_diagram(diagram, epsilon, dim) == betti_oracle(
                cx, epsilon, dim
            )


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
    diagram = Diagram(
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
    assert got == (
        PersistenceInterval(1, 0.5, 1.5),
        PersistenceInterval(2, 1.0, float("inf")),
    )
    assert intervals_above_dim_zero(diagram) is got  # computed once per diagram


def test_unit_square_has_single_candidate():
    cx = unit_square_complex()
    diagram = boundary_reduce(cx)
    candidates = intervals_above_dim_zero(diagram)
    assert len(candidates) == 1
    assert candidates[0].dim == 1


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def test_diagram_csv_format(tmp_path):
    diagram = boundary_reduce(unit_square_complex())
    path = tmp_path / "d.csv"
    write_diagram_csv(diagram, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dim,birth,death"
    assert len(lines) == len(diagram.intervals) + 1
    assert any(line.endswith(",inf") for line in lines[1:])


def test_diagram_json_contains_max_filtration(tmp_path):
    diagram = boundary_reduce(unit_square_complex())
    path = tmp_path / "d.json"
    write_diagram_json(diagram, path)
    payload = json.loads(path.read_text())
    assert payload["max_filtration"] == pytest.approx(math.sqrt(2))
    assert len(payload["intervals"]) == len(diagram.intervals)
