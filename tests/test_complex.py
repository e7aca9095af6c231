"""Unit and property tests for the simplicial-complex core."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdabc.complexes import FilteredComplex, _filtration_sorted, facets, proper_faces, simplex
from tdabc.errors import (
    DuplicateSimplex,
    InvalidConfig,
    MonotonicityViolation,
    SimplexNotFound,
)
from tdabc.persistence import boundary_reduce
from tdabc.rips import RipsConfig, build_rips, pairwise_distances

from conftest import (
    random_monotone_complex,
    random_monotone_values,
    random_rips,
    tetrahedron_complex,
    two_triangles_complex,
    unit_square_complex,
)
from oracles import link_via_star, rips_cliques, tuple_order, tuple_rows


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


def test_simplex_rejects_non_integer_ids():
    # The vertex matrix is int64: a float id would be truncated silently.
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        FilteredComplex([((1.5,), 0.0)])
    assert simplex(np.array([3, 1])) == (1, 3)


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
# Constructor validation: each (simplex, value) pair is checked as it is added
# ---------------------------------------------------------------------------


def test_insert_requires_facets_present():
    with pytest.raises(MonotonicityViolation, match=r"face \(1,\) of \(0, 1\) is missing"):
        FilteredComplex([((0,), 0.0), ((0, 1), 1.0)])


def test_insert_rejects_value_below_facet():
    with pytest.raises(MonotonicityViolation, match=r"face \(0,\) at 0.5 exceeds \(0, 1\) at 0.25"):
        FilteredComplex([((0,), 0.5), ((1,), 0.0), ((0, 1), 0.25)])


def test_insert_rejects_conflicting_duplicate():
    with pytest.raises(DuplicateSimplex, match=r"\(0,\) already stored at 0.0, got 1.0"):
        FilteredComplex([((0,), 0.0), ((0,), 1.0)])


def test_insert_tolerates_identical_reinsert():
    cx = FilteredComplex([((0,), 0.0), ((0,), 0.0)])
    assert cx.value((0,)) == 0.0
    assert len(cx) == 1 and cx.vertex_count == 1


def test_constructor_rejects_a_pair_listed_before_its_facet():
    with pytest.raises(MonotonicityViolation, match=r"face \(0,\) of \(0, 1\) is missing"):
        FilteredComplex([((1,), 0.0), ((0, 1), 1.0), ((0,), 0.0)])


def test_constructor_rejects_negative_values_and_bad_simplices():
    with pytest.raises(MonotonicityViolation, match="negative filtration value -1.0"):
        FilteredComplex([((0,), -1.0)])
    with pytest.raises(ValueError, match="duplicate vertex 1"):
        FilteredComplex([((1, 1), 0.0)])


def test_constructor_rejects_nan_values():
    # A NaN edge would reach the diagram as a NaN death and max_filtration.
    with pytest.raises(MonotonicityViolation, match=r"value of \(0, 1\) is NaN"):
        FilteredComplex([((0,), 0.0), ((1,), 0.0), ((0, 1), float("nan"))])
    # A NaN face passes every comparison with a finite coface; it is refused
    # where it is listed.
    with pytest.raises(MonotonicityViolation, match=r"value of \(0,\) is NaN"):
        FilteredComplex([((0,), float("nan")), ((1,), 0.0), ((0, 1), 1.0)])


def test_constructor_rejects_infinite_values():
    # An edge killing a class at inf would read as an immortal interval:
    # boundary_reduce of this complex used to give two immortal dim-0
    # intervals and max_filtration inf.
    with pytest.raises(MonotonicityViolation, match=r"value of \(0, 1\) is infinite"):
        boundary_reduce(FilteredComplex([((0,), 0.0), ((1,), 0.0), ((0, 1), math.inf)]))
    with pytest.raises(MonotonicityViolation, match="negative filtration value -inf"):
        FilteredComplex([((0,), -math.inf)])


def test_constructor_canonicalizes_vertex_order():
    cx = FilteredComplex([((1,), 0.0), ((0,), 0.0), ((1, 0), 0.5)])
    assert (0, 1) in cx and (1, 0) not in cx


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
    cx = FilteredComplex([((1,), 0.0), ((0,), 0.0), ((2,), 0.5), ((0, 1), 0.5)])
    assert cx.order == [(0,), (1,), (2,), (0, 1)]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_order_places_faces_before_cofaces(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    position = {s: i for i, s in enumerate(cx.order)}
    for s in cx.order:
        for f in facets(s):
            assert position[f] < position[s]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rows_hold_the_cofaces_in_filtration_order(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    matrix, values, ids = cx.rows
    cofaces = [s for s in cx.order if len(s) > 1]
    assert ids.tolist() == sorted(s[0] for s in cx.order if len(s) == 1)
    assert matrix.dtype == np.int32 and matrix.shape[0] == len(cofaces)
    ranks = [tuple(v for v in row if v >= 0) for row in matrix.tolist()]
    assert [tuple(ids[list(r)].tolist()) for r in ranks] == cofaces
    assert values.tolist() == [cx.value(s) for s in cofaces]
    assert cx.rows is cx.rows


@st.composite
def filtrations(draw) -> tuple[FilteredComplex, dict]:
    """A complex and the simplex-to-value map it was made from."""
    kind = draw(st.sampled_from(["monotone", "rips", "wide", "empty"]))
    if kind == "empty":
        return FilteredComplex(), {}
    if kind == "rips":
        # Integer grid points repeat distances and points, so many simplices
        # tie on value; the cap may be any stored distance.
        points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=1, max_size=8))
        dist = pairwise_distances(np.array(points, dtype=float))
        cap = draw(st.sampled_from([math.inf, *np.unique(dist).tolist()]))
        max_dim = draw(st.integers(2, 4))
        values = rips_cliques(dist, cap, max_dim)
        return build_rips(dist, RipsConfig(max_dim=max_dim, max_edge=cap)), values
    values = random_monotone_values(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if kind == "wide":
        # Vertex ids from 2^31 up, past int32 and in an order-preserving map.
        scale = draw(st.sampled_from([1, 3, 10**12]))
        values = {tuple(2**31 + scale * v for v in s): x for s, x in values.items()}
    return FilteredComplex(values.items()), values


@given(filtrations())
@settings(max_examples=150, deadline=None)
def test_arrays_equal_the_tuple_oracle(made):
    """Order, rows, counts and restrictions read from the arrays equal the
    tuple route's: sorted tuples, and rows packed by ``np.fromiter``."""
    cx, values = made
    order = tuple_order(values)
    assert cx.order == order
    assert [cx.value(s) for s in order] == [values[s] for s in order]
    assert cx.vertex_count == sum(len(s) == 1 for s in values)
    assert cx.dimension == max(map(len, values), default=0) - 1
    assert cx.max_value == max(values.values(), default=0.0)
    matrix, row_values, ids = cx.rows
    want_matrix, want_values = tuple_rows(values)
    assert matrix.dtype == np.int32 and matrix.shape == want_matrix.shape
    assert np.where(matrix >= 0, ids[matrix], -1).tobytes() == want_matrix.tobytes()
    assert row_values.tobytes() == want_values.tobytes()
    levels = sorted(set(values.values()))
    for eps in levels:
        assert cx.subcomplex_at(eps).order == [s for s in order if values[s] <= eps]
    for birth, death in itertools.combinations_with_replacement(levels[:6], 2):
        members = {f: values[f] for s in values if birth < values[s] <= death
                   for f in itertools.chain((s,), proper_faces(s))}
        band = cx.band(birth, death)
        assert band.order == tuple_order(members)
        assert [band.value(s) for s in band.order] == [members[s] for s in band.order]


@given(filtrations())
@settings(max_examples=150, deadline=None)
def test_boundaries_equal_the_tuple_facets(made):
    """Each dimension's values are the tuples' values, and facet column i is
    the position, among the order's (q-1)-simplices, of the simplex without
    its vertex i."""
    cx, values = made
    order = tuple_order(values)
    by_dim = [[s for s in order if len(s) == q + 1] for q in range(cx.dimension + 1)]
    got = list(cx.boundaries())
    assert len(got) == len(by_dim)
    for q, (row_values, facet_pos) in enumerate(got):
        simplices = by_dim[q]
        assert row_values.tolist() == [cx.value(s) for s in simplices]
        assert facet_pos.dtype == np.int64 and facet_pos.shape == (len(simplices), q + 1 if q else 0)
        if q:
            position = {f: i for i, f in enumerate(by_dim[q - 1])}
            want = [[position[s[:i] + s[i + 1:]] for i in range(q + 1)] for s in simplices]
            assert facet_pos.tolist() == want


@pytest.mark.parametrize("total", [0, 1, 2, 3, 255, 256, 257, 1024, 1025])
@pytest.mark.parametrize("distinct", [3, None])
def test_filtration_sort_is_the_stable_sort_of_the_values(total, distinct):
    """One sort of packed level-and-position keys orders the stacked blocks
    as a stable argsort of their values does: with heavy ties (three levels)
    and with a level per row, at totals on both sides of a power of two,
    where the position field gains a bit, and on no rows at all."""
    rng = np.random.default_rng(total)
    sizes = np.diff(np.sort(rng.integers(0, total + 1, size=2)), prepend=0, append=total)
    levels = rng.integers(0, distinct or max(total, 1), size=total)
    table = np.sort(rng.choice(10.0 ** np.arange(-3, 3, 0.001), size=distinct or max(total, 1),
                               replace=False))
    blocks, at = [], 0  # an empty complex has no block
    for q, size in enumerate(sizes.tolist() if total else []):
        blocks.append((rng.integers(0, 50, size=(size, q + 1)), levels[at : at + size]))
        at += size
    ranks, dims, values = _filtration_sorted(blocks, table)
    width = len(blocks) or 1
    stacked = np.full((total, width), -1)
    for (m, _), lo in zip(blocks, np.cumsum(sizes) - sizes):
        stacked[lo : lo + len(m), : m.shape[1]] = m
    want = np.argsort(table[levels], kind="stable")
    assert ranks.dtype == np.int32 and ranks.tobytes() == stacked[want].astype(np.int32).tobytes()
    assert dims.dtype == np.int64 and dims.tolist() == np.repeat([0, 1, 2], sizes)[want].tolist()
    assert values.dtype == np.float64 and values.tobytes() == table[levels][want].tobytes()
    assert ranks.shape == (total, width)


def test_a_negative_zero_value_is_stored_as_zero():
    cx = FilteredComplex([((0,), -0.0), ((1,), 0.0), ((0, 1), -0.0)])
    assert not np.signbit(cx._values).any()
    assert cx.order == [(0,), (1,), (0, 1)]


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
    cx = FilteredComplex([((0,), 0.0)])
    assert cx.link((0,)) == set()
    assert link_via_star(cx, (0,)) == set()


def test_shared_edge_link_is_the_two_opposite_vertices():
    cx = two_triangles_complex()
    assert cx.link((1, 2)) == {(0,), (3,)}


def test_link_members_are_disjoint_from_the_simplex():
    cx = tetrahedron_complex()
    for s in cx.order:
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
    for s in cx.order:
        assert cx.link(s) == link_via_star(cx, s)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_complex_is_face_closed(seed):
    cx = random_monotone_complex(np.random.default_rng(seed))
    for s in cx.order:
        for f in proper_faces(s):
            assert f in cx


# ---------------------------------------------------------------------------
# subcomplex_at
# ---------------------------------------------------------------------------


def test_subcomplex_at_max_value_is_whole_complex():
    cx = unit_square_complex()
    sub = cx.subcomplex_at(cx.max_value)
    assert set(sub.order) == set(cx.order)
    assert sub is cx


def test_repeated_restrictions_return_the_same_object():
    cx = unit_square_complex()
    assert cx.subcomplex_at(1.0) is cx.subcomplex_at(1.0)
    assert cx.band(0.0, 1.0) is cx.band(0.0, 1.0)
    assert cx.band(0.0, 1.0) is not cx.subcomplex_at(1.0)


def test_thresholds_between_the_same_stored_values_share_one_restriction():
    cx = unit_square_complex()
    assert cx.subcomplex_at(1.1) is cx.subcomplex_at(1.2) is cx.subcomplex_at(1.0)
    assert cx.band(0.2, 1.1) is cx.band(0.5, 1.2)
    assert cx.band(-1.0, 1.1) is cx.subcomplex_at(1.2)
    assert cx.band(-1.0, cx.max_value) is cx


def test_nan_thresholds_are_refused_and_store_nothing():
    cx = unit_square_complex()
    with pytest.raises(InvalidConfig):
        cx.subcomplex_at(math.nan)
    for birth, death in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(InvalidConfig):
            cx.band(birth, death)
    assert cx._restrictions == {}


def assert_no_tuple_index(cx, band):
    """A band is made from the arrays: neither it nor its parent has built
    the tuple index that it reads."""
    for made in (cx, band):
        assert made._tuples.cache_info().currsize == 0


def band_reference(cx, birth, death):
    """Simplices valued in (birth, death] plus their faces, in filtration order."""
    members = {}
    for s in cx.order:
        if birth < cx.value(s) <= death:
            members[s] = cx.value(s)
            for f in proper_faces(s):
                members.setdefault(f, cx.value(f))
    return sorted(members.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_band_matches_the_explicit_construction(seed):
    rng = np.random.default_rng(seed)
    cx = random_monotone_complex(rng)
    birth, death = sorted(float(x) for x in rng.uniform(0.0, max(cx.max_value, 0.1), 2))
    band = cx.band(birth, death)
    assert_no_tuple_index(cx, band)
    assert [(s, band.value(s)) for s in band.order] == band_reference(cx, birth, death)


@given(st.integers(0, 10_000), st.sampled_from([None, 1, 3, 10**12]))
@settings(max_examples=60, deadline=None)
def test_a_prefix_reads_its_parents_index_as_a_built_copy(seed, scale):
    """Cut at every stored level and below the least one (the empty prefix),
    a sub-complex answers ``in``, ``value``, ``star``, ``closure``, ``link``
    and ``order`` as a complex built from its (simplex, value) pairs does,
    with vertex ids 0..n-1 or wide ids from 2^31 up.  It reads its parent's
    tuple index and builds none of its own."""
    values = random_monotone_values(np.random.default_rng(seed))
    if scale is not None:
        values = {tuple(2**31 + scale * v for v in s): x for s, x in values.items()}
    cx = FilteredComplex(values.items())
    order = tuple_order(values)
    levels = sorted(set(values.values()))
    for eps in [levels[0] - 1.0, *levels]:
        sub = cx.subcomplex_at(eps)
        copy = FilteredComplex((s, values[s]) for s in order if values[s] <= eps)
        assert sub._tuples is cx._tuples
        assert sub.order == copy.order
        assert sub.closure(sub.order) == copy.closure(copy.order)
        for s in order:
            assert (s in sub) == (s in copy)
            if s in copy:
                assert type(sub.value(s)) is float and sub.value(s) == copy.value(s)
                assert sub.star(s) == copy.star(s)
                assert sub.closure([s]) == copy.closure([s])
                assert sub.link(s) == copy.link(s)
            else:
                for read in (sub.value, sub.star, sub.link, lambda t: sub.closure([t])):
                    with pytest.raises(SimplexNotFound):
                        read(s)
    assert cx._tuples.cache_info().currsize == 1


def test_subcomplex_at_zero_is_vertex_skeleton():
    cx = unit_square_complex()
    sub = cx.subcomplex_at(0.0)
    assert set(sub.order) == {(0,), (1,), (2,), (3,)}
    assert sub.rows[0].shape == (0, 1) and sub.rows[1].shape == (0,)


def test_unit_square_at_one_has_sides_but_no_diagonals():
    cx = unit_square_complex()
    sub = cx.subcomplex_at(1.0)
    edges = {s for s in sub.order if len(s) == 2}
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
    for s in sub.order:
        assert sub.value(s) == cx.value(s)
        assert sub.value(s) <= cutoff
        for f in proper_faces(s):
            assert f in sub
    assert sub.order == [s for s in cx.order if cx.value(s) <= cutoff]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_restrictions_at_stored_values_keep_every_tie(seed):
    """Thresholds equal to stored values: ties at the cut go in, for prefixes and bands."""
    cx = random_monotone_complex(np.random.default_rng(seed))
    levels = np.unique(cx._values).tolist()  # not ``order``, which builds the tuple index
    for birth, death in itertools.combinations_with_replacement(levels, 2):
        band = cx.band(birth, death)
        assert_no_tuple_index(cx, band)
    for eps in levels:
        assert cx.subcomplex_at(eps).order == [s for s in cx.order if cx.value(s) <= eps]
    for birth, death in itertools.combinations_with_replacement(levels, 2):
        band = cx.band(birth, death)
        assert [(s, band.value(s)) for s in band.order] == band_reference(cx, birth, death)


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
    assert cx.order == []
