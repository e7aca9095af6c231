"""Unit and property tests for the simplicial-complex core."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdabc.complexes import FilteredComplex, facets, proper_faces, simplex
from tdabc.errors import DuplicateSimplex, MonotonicityViolation, SimplexNotFound

from conftest import (
    random_monotone_complex,
    random_rips,
    tetrahedron_complex,
    two_triangles_complex,
    unit_square_complex,
)


# ---------------------------------------------------------------------------
# simplex(), facets(), proper_faces()
# ---------------------------------------------------------------------------


def test_simplex_sorts_vertices():
    assert simplex([3, 1, 2]) == (1, 2, 3)


def test_simplex_rejects_duplicates():
    with pytest.raises(ValueError):
        simplex([1, 1, 2])


def test_simplex_rejects_empty():
    with pytest.raises(ValueError):
        simplex([])


def test_simplex_rejects_negative_ids():
    with pytest.raises(ValueError):
        simplex([-1, 2])


def test_facets_of_triangle():
    assert sorted(facets((0, 1, 2))) == [(0, 1), (0, 2), (1, 2)]


def test_facets_of_vertex_is_empty():
    assert list(facets((7,))) == []


def test_proper_faces_of_triangle():
    got = sorted(proper_faces((0, 1, 2)))
    assert got == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]


@given(st.integers(2, 5))
def test_proper_face_count_is_power_of_two_minus_two(q):
    """A q-simplex has 2^(q+1) - 2 proper faces (all non-empty strict subsets)."""
    s = tuple(range(q + 1))
    assert len(set(proper_faces(s))) == 2 ** (q + 1) - 2


# ---------------------------------------------------------------------------
# insert() validation
# ---------------------------------------------------------------------------


def test_insert_requires_facets_present():
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    with pytest.raises(MonotonicityViolation):
        cx.insert((0, 1), 1.0)


def test_insert_rejects_value_below_facet():
    cx = FilteredComplex()
    cx.insert((0,), 0.5)
    cx.insert((1,), 0.0)
    with pytest.raises(MonotonicityViolation):
        cx.insert((0, 1), 0.25)


def test_insert_rejects_conflicting_duplicate():
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    with pytest.raises(DuplicateSimplex):
        cx.insert((0,), 1.0)


def test_insert_tolerates_identical_reinsert():
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    cx.insert((0,), 0.0)
    assert cx.value((0,)) == 0.0


def test_membership_and_value():
    cx = two_triangles_complex()
    assert (1, 2) in cx
    assert (0, 3) not in cx
    assert cx.value((0, 1, 2)) == 1.0
    with pytest.raises(SimplexNotFound):
        cx.value((0, 3))


# ---------------------------------------------------------------------------
# Filtration order
# ---------------------------------------------------------------------------


def test_order_sorts_by_value_then_dimension_then_lexicographic():
    cx = FilteredComplex()
    cx.insert((1,), 0.0)
    cx.insert((0,), 0.0)
    cx.insert((2,), 0.5)
    cx.insert((0, 1), 0.5)
    assert cx.order == [(0,), (1,), (2,), (0, 1)]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_order_places_faces_before_cofaces(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    position = {s: i for i, s in enumerate(cx.order)}
    for s in cx.simplices():
        for f in facets(s):
            assert position[f] < position[s]


# ---------------------------------------------------------------------------
# star / closure / link
# ---------------------------------------------------------------------------


def test_tetrahedron_vertex_link_is_opposite_triangle_closure():
    cx = tetrahedron_complex()
    link = cx.link((4,))
    expected = {(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)}
    assert link == expected


def test_star_includes_the_simplex_itself():
    cx = tetrahedron_complex()
    star = cx.star((4,))
    assert (4,) in star
    assert all(4 in s for s in star)
    # 8 cofaces of a vertex in a full tetrahedron: 1+3+3+1
    assert len(star) == 8


def test_star_of_missing_simplex_raises():
    cx = two_triangles_complex()
    with pytest.raises(SimplexNotFound):
        cx.star((0, 3))


def test_closure_of_triangle_has_seven_members():
    cx = tetrahedron_complex()
    got = cx.closure([(2, 3, 5)])
    assert got == {(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)}


def test_isolated_vertex_has_empty_link():
    cx = FilteredComplex()
    cx.insert((0,), 0.0)
    assert cx.link((0,)) == set()
    assert cx.link_via_star((0,)) == set()


def test_shared_edge_link_is_the_two_opposite_vertices():
    cx = two_triangles_complex()
    assert cx.link((1, 2)) == {(0,), (3,)}


def test_link_members_are_disjoint_from_the_simplex():
    cx = tetrahedron_complex()
    for s in cx.simplices():
        for member in cx.link(s):
            assert not set(member) & set(s)


def test_subtraction_form_matches_vertex_links_only():
    """closed-star minus (star and closure) characterizes links of vertices.

    For higher simplices the closed star keeps faces that touch the simplex
    without containing it, so the subtraction form strictly contains the link.
    """
    cx = two_triangles_complex()
    for v in ((0,), (1,), (2,), (3,)):
        closed_star = cx.closure(cx.star(v))
        subtraction = closed_star - set(cx.star(v)) - cx.closure([v])
        assert subtraction == cx.link(v)
    edge = (1, 2)
    closed_star = cx.closure(cx.star(edge))
    subtraction = closed_star - set(cx.star(edge)) - cx.closure([edge])
    assert subtraction > cx.link(edge)  # strict superset: (0,1), (0,2), ...


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_link_equals_star_difference_form(seed):
    rng = np.random.default_rng(seed)
    cx = random_monotone_complex(rng) if seed % 2 else random_rips(rng)
    for s in cx.simplices():
        assert cx.link(s) == cx.link_via_star(s)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_complex_is_face_closed(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    for s in cx.simplices():
        for f in proper_faces(s):
            assert f in cx


# ---------------------------------------------------------------------------
# subcomplex_at
# ---------------------------------------------------------------------------


def test_subcomplex_at_max_value_is_whole_complex():
    cx = unit_square_complex()
    sub = cx.subcomplex_at(cx.max_value)
    assert set(sub.simplices()) == set(cx.simplices())


def test_subcomplex_at_zero_is_vertex_skeleton():
    cx = unit_square_complex()
    sub = cx.subcomplex_at(0.0)
    assert set(sub.simplices()) == {(0,), (1,), (2,), (3,)}


def test_unit_square_at_one_has_sides_but_no_diagonals():
    cx = unit_square_complex()
    sub = cx.subcomplex_at(1.0)
    edges = {s for s in sub.simplices() if len(s) == 2}
    assert edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert sub.vertex_count == 4
    assert sub.dimension == 1


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_subcomplex_preserves_values_and_is_face_closed(seed):
    rng = np.random.default_rng(seed)
    cx = random_monotone_complex(rng)
    cutoff = float(rng.uniform(0.0, max(cx.max_value, 0.1)))
    sub = cx.subcomplex_at(cutoff)
    for s in sub.simplices():
        assert sub.value(s) == cx.value(s)
        assert sub.value(s) <= cutoff
        for f in proper_faces(s):
            assert f in sub


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def test_vertex_count_dimension_max_value():
    cx = two_triangles_complex()
    assert cx.vertex_count == 4
    assert cx.dimension == 2
    assert cx.max_value == 1.0


def test_empty_complex_properties():
    cx = FilteredComplex()
    assert cx.vertex_count == 0
    assert list(cx.simplices()) == []
