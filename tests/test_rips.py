"""Unit and property tests for distance matrices and Rips construction."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import tdabc.rips as rips
from tdabc.complexes import facets
from tdabc.errors import CapacityExceeded, DimensionMismatch, InvalidConfig
from tdabc.persistence import boundary_reduce
from tdabc.rips import (
    METRICS,
    RipsConfig,
    _simplex_count_bound,
    auto_max_edge,
    build_rips,
    pairwise_distances,
)

from conftest import UNIT_SQUARE, random_cloud, unit_square_complex
from oracles import rips_cliques


# ---------------------------------------------------------------------------
# pairwise_distances
# ---------------------------------------------------------------------------


def test_euclidean_distances_unit_square():
    dist = pairwise_distances(UNIT_SQUARE)
    assert dist.shape == (4, 4)
    assert np.allclose(np.diag(dist), 0.0)
    assert np.allclose(dist, dist.T)
    assert dist[0, 1] == pytest.approx(1.0)
    assert dist[0, 2] == pytest.approx(math.sqrt(2))


def test_manhattan_distances():
    dist = pairwise_distances(UNIT_SQUARE, metric="manhattan")
    assert dist[0, 2] == pytest.approx(2.0)


def test_cosine_distances():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    dist = pairwise_distances(pts, metric="cosine")
    assert dist[0, 1] == pytest.approx(1.0)  # orthogonal
    assert dist[0, 2] == pytest.approx(0.0, abs=1e-12)  # parallel


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        pairwise_distances(UNIT_SQUARE, metric="nope")


def test_ragged_input_rejected():
    with pytest.raises(DimensionMismatch):
        pairwise_distances([[0.0, 1.0], [1.0]])


def test_non_finite_input_rejected():
    with pytest.raises(InvalidConfig):
        pairwise_distances(np.array([[0.0, np.nan], [1.0, 2.0]]))


@st.composite
def point_clouds(draw):
    """Up to 12 points in 1-6 dimensions at scales 1e-6 to 1e6, with integer
    grid coordinates mixed in and rows repeated."""
    k = draw(st.integers(1, 6))
    cell = st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0))
    rows = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    return np.array([rows[i] for i in picks]) * scale


@given(point_clouds(), st.sampled_from(METRICS))
@example(np.array([[0.0, 0.0], [1.0, 2.0]]), "cosine")  # a zero row has no angle
@settings(max_examples=200, deadline=None)
def test_distances_equal_scipys_cdist(points, metric):
    """SciPy's cdist, symmetrised and with a zero diagonal, is the oracle: equal
    bit for bit for euclidean and manhattan, within 1e-12 for cosine, whose
    sums SciPy orders differently; where it is undefined an InvalidConfig."""
    want = cdist(points, points, metric="cityblock" if metric == "manhattan" else metric)
    if not np.isfinite(want).all():
        with pytest.raises(InvalidConfig):
            pairwise_distances(points, metric)
        return
    want = np.minimum(want, want.T)
    np.fill_diagonal(want, 0.0)
    got = pairwise_distances(points, metric)
    assert np.array_equal(got, got.T)
    if metric == "cosine":
        assert np.abs(got - want).max() <= 1e-12
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("metric", METRICS)
def test_distances_hold_two_matrices_at_most(metric):
    """The sum and one term are the only n-by-n float matrices made; four
    temporaries at a time would pass the bound."""
    n = 400
    points = np.random.default_rng(0).normal(size=(n, 4))
    tracemalloc.start()
    try:
        pairwise_distances(points, metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * n * n


def test_a_negative_zero_distance_is_stored_as_zero():
    dist = [[0.0, -0.0, 1.0], [-0.0, 0.0, 0.5], [1.0, 0.5, 0.0]]
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=2.0))
    assert cx.value((0, 1)) == 0.0 and len(cx) == 7
    diagram = boundary_reduce(cx)
    for values in (cx._values, diagram.births, diagram.deaths):
        assert not np.signbit(values).any()


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_build_rips_rejects_negative_or_nan_distances(bad):
    dist = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(InvalidConfig, match="non-negative and not NaN"):
        build_rips(dist, RipsConfig(max_dim=2, max_edge=1.0))


def test_build_rips_rejects_infinite_distances():
    # With the automatic cap an infinite entry used to become the cap itself,
    # and the edge was stored at inf.
    dist = np.array([[0.0, math.inf], [math.inf, 0.0]])
    with pytest.raises(InvalidConfig, match="non-negative and not NaN or infinite"):
        build_rips(dist, RipsConfig(max_dim=2))


# ---------------------------------------------------------------------------
# build_rips on known geometry
# ---------------------------------------------------------------------------


def test_unit_square_complex_contents():
    cx = unit_square_complex()
    sides = {(0, 1), (1, 2), (2, 3), (0, 3)}
    diagonals = {(0, 2), (1, 3)}
    for e in sides:
        assert cx.value(e) == pytest.approx(1.0)
    for e in diagonals:
        assert cx.value(e) == pytest.approx(math.sqrt(2))
    triangles = [s for s in cx.order if len(s) == 3]
    assert len(triangles) == 4
    for t in triangles:
        assert cx.value(t) == pytest.approx(math.sqrt(2))


def test_vertices_enter_at_zero():
    cx = unit_square_complex()
    for v in range(4):
        assert cx.value((v,)) == 0.0


def test_max_edge_filters_long_pairs():
    pts = np.array([[0.0, 0.0], [5.0, 0.0]])
    dist = pairwise_distances(pts)
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=1.0))
    assert set(cx.order) == {(0,), (1,)}


def test_single_point():
    cx = build_rips(np.zeros((1, 1)), RipsConfig(max_dim=2, max_edge=float("inf")))
    assert set(cx.order) == {(0,)}
    assert cx.value((0,)) == 0.0


def test_max_dim_caps_simplex_dimension():
    dist = pairwise_distances(UNIT_SQUARE)
    cx = build_rips(dist, RipsConfig(max_dim=3, max_edge=float("inf")))
    assert cx.dimension == 3
    assert (0, 1, 2, 3) in cx
    cx2 = build_rips(dist, RipsConfig(max_dim=2, max_edge=float("inf")))
    assert cx2.dimension == 2


def test_config_requires_max_dim_at_least_two():
    with pytest.raises(ValueError):
        RipsConfig(max_dim=1)


def test_budget_guard_raises():
    rng = np.random.default_rng(0)
    dist = pairwise_distances(rng.normal(size=(30, 2)))
    with pytest.raises(CapacityExceeded):
        build_rips(dist, RipsConfig(max_dim=3, max_edge=float("inf"), budget=50))


def test_budget_below_the_vertex_count_raises_before_the_cap_search(monkeypatch):
    """No edge cap helps when the vertices alone pass the budget, so the cap
    search does not run and the message says to raise the budget."""
    dist = pairwise_distances(np.random.default_rng(0).normal(size=(30, 2)))

    def no_search(*args):
        raise AssertionError("auto_max_edge ran")

    monkeypatch.setattr(rips, "auto_max_edge", no_search)
    with pytest.raises(CapacityExceeded, match=r"30 vertices exceed the budget of 10 .*--budget"):
        build_rips(dist, RipsConfig(max_dim=3, max_edge=None, budget=10))
    build_rips(dist, RipsConfig(max_dim=3, max_edge=0.0, budget=30))  # the vertices alone fit


def test_budget_stops_growth_within_a_few_adjacency_matrices():
    """Growth is chunked over the frontier and each chunk is counted before it
    is stored, so passing the budget on 1,500 points with no edge cap holds
    a few n-by-n boolean masks at most, never every edge at once."""
    n = 1500
    dist = pairwise_distances(np.random.default_rng(0).normal(size=(n, 3)))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded):
            build_rips(dist, RipsConfig(max_dim=2, max_edge=math.inf, budget=5_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n


# ---------------------------------------------------------------------------
# Diameter rule, monotonicity, restriction consistency (properties)
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_diameter_rule(seed):
    rng = np.random.default_rng(seed)
    points = random_cloud(rng)
    dist = pairwise_distances(points)
    cx = build_rips(dist, RipsConfig(max_dim=3, max_edge=float("inf")))
    for s in cx.order:
        if len(s) == 1:
            assert cx.value(s) == 0.0
        else:
            diameter = max(dist[a, b] for a, b in itertools.combinations(s, 2))
            assert cx.value(s) == pytest.approx(diameter, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_filtration_monotone_on_built_complexes(seed):
    rng = np.random.default_rng(seed)
    dist = pairwise_distances(random_cloud(rng))
    cx = build_rips(dist, RipsConfig(max_dim=3, max_edge=float("inf")))
    for s in cx.order:
        for f in facets(s):
            assert cx.value(f) <= cx.value(s)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_restriction_consistency(seed):
    """Building with a cap equals capping the full complex afterwards."""
    rng = np.random.default_rng(seed)
    dist = pairwise_distances(random_cloud(rng))
    full = build_rips(dist, RipsConfig(max_dim=3, max_edge=float("inf")))
    cap = float(rng.uniform(0.1, dist.max() + 0.1))
    capped = build_rips(dist, RipsConfig(max_dim=3, max_edge=cap))
    assert set(capped.order) == set(full.subcomplex_at(cap).order)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_edge_count_matches_pairs_within_cap(seed):
    rng = np.random.default_rng(seed)
    dist = pairwise_distances(random_cloud(rng))
    cap = float(rng.uniform(0.1, dist.max() + 0.1))
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=cap))
    n = dist.shape[0]
    expected = sum(
        1 for a, b in itertools.combinations(range(n), 2) if dist[a, b] <= cap
    )
    assert sum(1 for s in cx.order if len(s) == 2) == expected


grid_clouds = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8
)


@given(
    grid_clouds,
    st.sampled_from(["euclidean", "manhattan"]),
    st.integers(2, 4),
    st.integers(1, 120),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_build_rips_equals_the_clique_oracle(points, metric, max_dim, budget, data):
    """Grid points repeat distances and points, so ties meet the cap and each other."""
    dist = pairwise_distances(np.array(points, dtype=float), metric=metric)
    cap = data.draw(st.sampled_from(sorted(set(dist.ravel().tolist())) + [math.inf]))
    expected = rips_cliques(dist, cap, max_dim)
    config = RipsConfig(max_dim=max_dim, max_edge=cap, budget=budget)
    if len(expected) > budget:
        with pytest.raises(CapacityExceeded):
            build_rips(dist, config)
        return
    cx = build_rips(dist, config)
    assert sorted((s, cx.value(s)) for s in cx.order) == sorted(expected.items())


# ---------------------------------------------------------------------------
# auto_max_edge
# ---------------------------------------------------------------------------


def comb_bound(dist, r, max_dim):
    """The simplex-count bound written with binomial coefficients."""
    degrees = [int(d) - 1 for d in (dist <= r).sum(axis=1)]
    total = float(len(degrees))
    for q in range(1, max_dim + 1):
        total += sum(comb(d, q) for d in degrees) / (q + 1.0)
    return total


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_simplex_count_bound_is_the_comb_form(seed, max_dim):
    """Bit-equal at every radius of the cloud; clouds at max_dim 4-5 stay small."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60 if max_dim <= 3 else 15))
    dist = pairwise_distances(rng.normal(size=(n, 3)))
    for r in np.unique(dist):
        assert _simplex_count_bound(dist, float(r), max_dim) == comb_bound(dist, float(r), max_dim)


def test_auto_max_edge_within_diameter_and_budget():
    rng = np.random.default_rng(3)
    dist = pairwise_distances(rng.normal(size=(40, 3)))
    budget = 20_000
    cap = auto_max_edge(dist, max_dim=3, budget=budget)
    assert 0.0 < cap <= dist.max()
    cx = build_rips(dist, RipsConfig(max_dim=3, max_edge=cap, budget=budget))
    assert len(cx.order) <= budget


def test_auto_cap_keeps_small_clouds_connected():
    """With loose budgets the automatic cap spans every spanning-tree edge."""
    rng = np.random.default_rng(5)
    points = rng.normal(size=(12, 2))
    dist = pairwise_distances(points)
    cap = auto_max_edge(dist, max_dim=2, budget=500_000)
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=cap))
    # union-find over edges: a single component proves the cap suffices
    parent = list(range(12))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in cx.order:
        if len(s) == 2:
            parent[find(s[0])] = find(s[1])
    assert len({find(v) for v in range(12)}) == 1


def test_default_config_builds_without_cap_argument():
    rng = np.random.default_rng(11)
    dist = pairwise_distances(rng.normal(size=(25, 2)))
    cx = build_rips(dist, RipsConfig(max_dim=2, budget=100_000))
    assert cx.vertex_count == 25
    assert len(cx.order) <= 100_000
