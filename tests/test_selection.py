"""Unit and property tests for interval selection and sub-complex recovery."""

from __future__ import annotations

import math
import operator
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdabc.complexes import proper_faces
from tdabc.errors import EmptyIntervalSet
from tdabc.persistence import PersistenceInterval, boundary_reduce, intervals_above_dim_zero
from tdabc.selection import SelectionPolicy, interval_epsilon, recover, select

from conftest import random_rips, unit_square_complex
from oracles import diagram_of, lifetime

INF = float("inf")


def bar(dim, birth, death):
    return PersistenceInterval(dim, birth, death)


# ---------------------------------------------------------------------------
# lifetime
# ---------------------------------------------------------------------------


def lifetimes(intervals, max_filtration):
    return diagram_of(intervals, max_filtration).spans[0].tolist()


def test_lifetime_finite():
    assert lifetimes([bar(1, 0.5, 2.0)], 10.0) == [1.5]


def test_lifetime_truncates_at_max_filtration():
    assert lifetimes([bar(1, 0.5, INF), bar(1, 0.5, 9.0)], 3.0) == [2.5, 2.5]


# ---------------------------------------------------------------------------
# selectors (the paper's Max.Int, Avg.Int and Rand.Int)
# ---------------------------------------------------------------------------

BARS = (
    bar(1, 0.0, 1.0),   # lifetime 1.0
    bar(1, 1.0, 4.0),   # lifetime 3.0
    bar(2, 2.0, 4.5),   # lifetime 2.5
)


def pick(selector, intervals, max_filtration, rng=None):
    return select(diagram_of(intervals, max_filtration), SelectionPolicy(selector), rng)


def test_max_int_picks_longest():
    assert pick("max", BARS, 10.0) == bar(1, 1.0, 4.0)


def test_max_int_tie_prefers_later_birth():
    tie = (bar(1, 0.0, 2.0), bar(1, 1.0, 3.0))
    assert pick("max", tie, 10.0) == bar(1, 1.0, 3.0)


def test_max_int_truncation_can_change_winner():
    bars = (bar(1, 0.0, 1.5), bar(1, 2.0, INF))
    assert pick("max", bars, 10.0) == bar(1, 2.0, INF)
    assert pick("max", bars, 3.0) == bar(1, 0.0, 1.5)


def test_avg_int_picks_closest_to_mean():
    # lifetimes 1.0, 3.0, 2.5 -> mean 13/6 ~ 2.1667; closest is 2.5
    assert pick("avg", BARS, 10.0) == bar(2, 2.0, 4.5)


def test_avg_int_tie_prefers_later_birth():
    bars = (bar(1, 0.0, 2.0), bar(1, 1.0, 3.0), bar(1, 0.0, 8.0))
    # lifetimes 2, 2, 8 -> mean 4; both 2-lifetime bars tie at distance 2... 8 is 4 away
    assert pick("avg", bars, 10.0) == bar(1, 1.0, 3.0)


def test_rand_int_draws_from_above_mean_pool():
    rng = np.random.default_rng(0)
    for _ in range(20):
        picked = pick("rand", BARS, 10.0, rng)
        assert lifetime(picked, 10.0) > 13.0 / 6.0


def test_rand_int_falls_back_to_all_when_no_bar_exceeds_mean():
    bars = (bar(1, 0.0, 1.0), bar(1, 2.0, 3.0))  # equal lifetimes, none above mean
    rng = np.random.default_rng(0)
    assert pick("rand", bars, 10.0, rng) in bars


def test_rand_int_is_seed_deterministic():
    first = pick("rand", BARS, 10.0, np.random.default_rng(42))
    second = pick("rand", BARS, 10.0, np.random.default_rng(42))
    assert first == second


@pytest.mark.parametrize("selector", ["max", "avg"], ids=["max_int", "avg_int"])
def test_selectors_reject_empty(selector):
    with pytest.raises(EmptyIntervalSet):
        pick(selector, (), 1.0)


def test_rand_rejects_empty():
    with pytest.raises(EmptyIntervalSet):
        pick("rand", (), 1.0, np.random.default_rng(0))


def test_select_dispatches_by_policy():
    rng = np.random.default_rng(0)
    diagram = diagram_of(BARS, 10.0)
    assert select(diagram, SelectionPolicy(selector="max"), rng) == bar(1, 1.0, 4.0)
    assert select(diagram, SelectionPolicy(selector="avg"), rng) == bar(2, 2.0, 4.5)
    picked = select(diagram, SelectionPolicy(selector="rand"), np.random.default_rng(1))
    assert picked == rand_reference(BARS, 10.0, np.random.default_rng(1))


def max_reference(intervals, max_filtration):
    """Scans of the interval tuple with ``max``/``min`` and ``sum``: the oracles
    for the array kernels, tie rules included."""
    return max(intervals, key=lambda d: (lifetime(d, max_filtration), d.birth))


def avg_reference(intervals, max_filtration):
    spans = [lifetime(d, max_filtration) for d in intervals]
    mean = sum(spans) / len(spans)
    return min(zip(intervals, spans), key=lambda pair: (abs(pair[1] - mean), -pair[0].birth))[0]


def rand_reference(intervals, max_filtration, rng):
    spans = [lifetime(d, max_filtration) for d in intervals]
    mean = sum(spans) / len(spans)
    pool = [d for d, s in zip(intervals, spans) if s > mean] or list(intervals)
    return pool[int(rng.integers(len(pool)))]


# Few distinct values, so that lifetimes and births tie often.
GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
GRID_BARS = st.lists(
    st.tuples(st.integers(0, 2), GRID, st.one_of(GRID, st.just(INF))), max_size=12
)


@given(GRID_BARS, st.sampled_from([1.0, 1.5, 10.0]), st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_select_equals_the_scans_with_ties(raw, max_filtration, seed):
    # Intervals equal in (dim, birth, death) give the same epsilon and the same
    # sub-complex, so equality is all that a tie can show.
    diagram = diagram_of((bar(q, b, b + s) for q, b, s in raw), max_filtration)
    candidates = diagram.candidates
    if not candidates:
        with pytest.raises(EmptyIntervalSet):
            select(diagram, SelectionPolicy(), np.random.default_rng(seed))
        return
    for selector, reference in (("max", max_reference), ("avg", avg_reference)):
        want = reference(candidates, max_filtration)
        assert select(diagram, SelectionPolicy(selector=selector), None) == want
    want = rand_reference(candidates, max_filtration, np.random.default_rng(seed))
    rand = SelectionPolicy(selector="rand")
    assert select(diagram, rand, np.random.default_rng(seed)) == want


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_cached_mean_is_the_left_to_right_sum(seed):
    rng = np.random.default_rng(seed)
    births = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 400))).tolist()
    deaths = [b + float(rng.exponential()) if rng.random() < 0.9 else INF for b in births]
    max_filtration = float(rng.uniform(5.0, 8.0))
    diagram = diagram_of((bar(1, b, d) for b, d in zip(births, deaths)), max_filtration)
    spans = [lifetime(d, max_filtration) for d in diagram.candidates]
    lifetimes, cached_births, mean, positions = diagram.spans
    assert positions is diagram.candidates.positions
    assert lifetimes.tolist() == spans
    assert cached_births.tolist() == [d.birth for d in diagram.candidates]
    assert mean == reduce(operator.add, spans) / len(spans)
    if sys.version_info < (3, 12):  # later versions compensate ``sum`` of floats
        assert mean == sum(spans) / len(spans)
    assert diagram.spans is diagram.spans


# ---------------------------------------------------------------------------
# policy validation and epsilon modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"selector": "bogus"},
        {"epsilon_mode": "bogus"},
        {"recovery": "bogus"},
    ],
)
def test_policy_rejects_unknown_fields(kwargs):
    with pytest.raises(ValueError):
        SelectionPolicy(**kwargs)


def test_interval_epsilon_modes():
    d = bar(1, 1.0, 2.0)
    assert interval_epsilon(d, 10.0, "birth") == 1.0
    assert interval_epsilon(d, 10.0, "death") == 2.0
    assert interval_epsilon(d, 10.0, "mid") == 1.5


def test_interval_epsilon_truncates_immortal_death():
    d = bar(1, 1.0, INF)
    assert interval_epsilon(d, 3.0, "death") == 3.0
    assert interval_epsilon(d, 3.0, "mid") == 2.0


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_sublevel_recovery_equals_value_cutoff():
    cx = unit_square_complex()
    d = bar(1, 1.0, math.sqrt(2))
    policy = SelectionPolicy(recovery="sublevel", epsilon_mode="birth")
    sub = recover(cx, d, policy)
    assert set(sub.order) == set(cx.subcomplex_at(1.0).order)


def test_sublevel_death_recovery_of_dominant_bar_is_whole_square():
    cx = unit_square_complex()
    diagram = boundary_reduce(cx)
    d = intervals_above_dim_zero(diagram)[0]
    sub = recover(cx, d, SelectionPolicy())
    assert set(sub.order) == set(cx.order)


def test_lifespan_recovery_keeps_strict_band_plus_faces():
    cx = unit_square_complex()
    d = bar(1, 1.0, math.sqrt(2))
    sub = recover(cx, d, SelectionPolicy(recovery="lifespan"))
    # band (1.0, sqrt2]: the two diagonals and the four triangles; faces pull
    # in all vertices and the four side edges.
    assert (0, 2) in sub and (1, 3) in sub
    assert all((v,) in sub for v in range(4))
    for s in sub.order:
        value = sub.value(s)
        in_band = d.birth < value <= d.death
        is_face_of_band = any(
            s in set(proper_faces(m))
            for m in sub.order
            if d.birth < sub.value(m) <= d.death
        )
        assert in_band or is_face_of_band


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_recovered_complexes_are_face_closed(seed):
    rng = np.random.default_rng(seed)
    cx = random_rips(rng)
    diagram = boundary_reduce(cx)
    candidates = intervals_above_dim_zero(diagram)
    if not candidates:
        return
    d = candidates[int(rng.integers(len(candidates)))]
    for recovery in ("sublevel", "lifespan"):
        for mode in ("birth", "death", "mid"):
            sub = recover(cx, d, SelectionPolicy(recovery=recovery, epsilon_mode=mode))
            for s in sub.order:
                for f in proper_faces(s):
                    assert f in sub
                assert sub.value(s) == cx.value(s)


def test_lifespan_ignores_epsilon_mode():
    cx = unit_square_complex()
    d = bar(1, 1.0, math.sqrt(2))
    subs = [
        set(recover(cx, d, SelectionPolicy(recovery="lifespan", epsilon_mode=m)).order)
        for m in ("birth", "death", "mid")
    ]
    assert subs[0] == subs[1] == subs[2]
