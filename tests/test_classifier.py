"""Unit and property tests for label association, extension, and prediction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdabc.classifier import (
    EPSILON_FLOOR,
    AssociationTable,
    _extension,
    associate,
    choose_label,
    classify_all,
    extend,
    extend_all,
    handle_isolated,
    handle_unlabeled_link,
    majority_class,
)
from tdabc.complexes import FilteredComplex
from tdabc.errors import InvalidAssociation, NoLabeledData, SimplexNotFound
from tdabc.persistence import boundary_reduce
from tdabc.rips import RipsConfig, build_rips, pairwise_distances
from tdabc.selection import SelectionPolicy

from conftest import random_association, random_rips
from oracles import extend_link_form


def table_for(training, test, n_classes=2):
    return AssociationTable(dict(training), frozenset(test), n_classes)


def star_complex():
    """Vertex 0 joined to a green vertex (1) at 0.5 and a red vertex (2) at 1.0."""
    vertices = [((v,), 0.0) for v in (0, 1, 2)]
    return FilteredComplex(vertices + [((0, 1), 0.5), ((0, 2), 1.0)])


# ---------------------------------------------------------------------------
# AssociationTable
# ---------------------------------------------------------------------------


def test_table_rejects_overlapping_sets():
    with pytest.raises(InvalidAssociation):
        table_for({0: 0}, {0})


def test_table_rejects_out_of_range_labels():
    with pytest.raises(InvalidAssociation):
        table_for({0: 5}, {1}, n_classes=2)


def test_table_rejects_a_single_class():
    with pytest.raises(InvalidAssociation) as excinfo:
        table_for({0: 0}, {1}, n_classes=1)
    assert isinstance(excinfo.value, ValueError)


def test_majority_class():
    t = table_for({0: 1, 1: 1, 2: 0}, {3})
    assert majority_class(t) == 1
    assert majority_class(table_for({0: 1, 1: 0, 2: 2}, {3}, n_classes=4)) == 0  # first max


# ---------------------------------------------------------------------------
# associate
# ---------------------------------------------------------------------------


def test_associate_mixed_edge_is_one_hot():
    t = table_for({1: 0}, {0})
    got = associate(t, (0, 1))
    assert got.tolist() == [1.0, 0.0]


def test_associate_triangle_sums_one_hots():
    t = table_for({0: 0, 1: 0, 2: 1}, {3})
    got = associate(t, (0, 1, 2))
    assert got.tolist() == [2.0, 1.0]


def test_associate_all_test_vertices_is_zero():
    t = table_for({3: 0}, {0, 1, 2})
    assert associate(t, (0, 1, 2)).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# extend (star form) and link form
# ---------------------------------------------------------------------------


def test_extend_weights_by_inverse_filtration():
    cx = star_complex()
    t = table_for({1: 0, 2: 1}, {0})
    got = extend(cx, t, 0)
    assert got == pytest.approx([2.0, 1.0])


def test_extend_isolated_vertex_is_zero():
    cx = FilteredComplex([((0,), 0.0), ((1,), 0.0)])
    t = table_for({1: 0}, {0})
    assert extend(cx, t, 0).tolist() == [0.0, 0.0]


def test_extend_missing_vertex_raises():
    cx = star_complex()
    t = table_for({1: 0, 2: 1}, {0})
    with pytest.raises(SimplexNotFound):
        extend(cx, t, 9)


def test_inverse_weights_break_raw_count_ties():
    """Equal label counts resolve toward the class clustered at smaller values."""
    cx = FilteredComplex(
        [((v,), 0.0) for v in (0, 1, 2)]
        + [((0, 1), 0.25), ((0, 2), 2.0)]  # nearby green, distant red
    )
    t = table_for({1: 0, 2: 1}, {0})
    scores = extend(cx, t, 0)
    assert scores[0] > scores[1]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extension_forms_agree(seed):
    rng = np.random.default_rng(seed)
    cx = random_rips(rng, max_points=10)
    t = random_association(rng, cx)
    for v in sorted(t.test_vertices):
        a = extend(cx, t, v)
        b = extend_link_form(cx, t, v)
        assert np.max(np.abs(a - b)) <= 1e-12


def star_loop_extension(complex_, table, v):
    """One vertex's extension as a loop over its star: the oracle for the
    batched route's values and summation order."""
    scores = np.zeros(table.n_classes)
    for mu in complex_.star((v,)):
        if len(mu) == 1:
            continue
        w = 1.0 / max(complex_.value(mu), EPSILON_FLOOR)
        for u in mu:
            if u == v:
                continue
            lab = table.training.get(u)
            if lab is not None:
                scores[lab] += w
    return scores


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_batched_extension_equals_the_star_loop(seed):
    """Bit-identical scores for test, training and absent vertices, on the
    complex, a sublevel sub-complex and a lifespan band."""
    rng = np.random.default_rng(seed)
    cx = random_rips(rng, max_points=12)
    table = random_association(rng, cx, n_classes=int(rng.integers(2, 4)))
    subs = [cx, cx.subcomplex_at(float(rng.uniform(0.0, cx.max_value)))]
    candidates = boundary_reduce(cx).candidates
    if candidates:
        d = candidates[int(rng.integers(len(candidates)))]
        subs.append(cx.band(d.birth, min(d.death, cx.max_value)))
    queried = rng.permutation(cx.vertex_count + 2).tolist()  # two ids in no complex
    queried.append(queried[0])
    for sub in subs:
        rows, cofaces = _extension(sub, table, queried)
        assert np.array_equal(extend_all(sub, table, queried), rows)
        for v, got, count in zip(queried, rows, cofaces):
            if (v,) in sub:
                assert np.array_equal(got, star_loop_extension(sub, table, v))
                assert np.array_equal(extend(sub, table, v), got)
                assert count == len(sub.star((v,))) - 1
            else:
                assert not got.any() and count == 0


def test_extend_all_of_no_vertices_is_empty():
    t = table_for({1: 0, 2: 1}, {0})
    assert extend_all(star_complex(), t, []).shape == (0, 2)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extension_scores_are_non_negative(seed):
    rng = np.random.default_rng(seed)
    cx = random_rips(rng, max_points=10)
    t = random_association(rng, cx)
    for v in sorted(t.test_vertices):
        assert (extend(cx, t, v) >= 0.0).all()


# ---------------------------------------------------------------------------
# choose_label
# ---------------------------------------------------------------------------


def test_choose_label_unique_max():
    assert choose_label(np.array([2.0, 1.0]), np.random.default_rng(0)) == 0


def test_choose_label_zero_scores_is_none():
    assert choose_label(np.array([0.0, 0.0]), np.random.default_rng(0)) is None


def test_choose_label_tie_is_seed_deterministic():
    scores = np.array([1.0, 1.0])
    picks = {choose_label(scores, np.random.default_rng(7)) for _ in range(5)}
    assert len(picks) == 1
    assert picks.pop() in (0, 1)


def test_choose_label_tie_covers_both_classes_across_seeds():
    scores = np.array([1.0, 1.0])
    picks = {choose_label(scores, np.random.default_rng(s)) for s in range(32)}
    assert picks == {0, 1}


def test_choose_label_seeds_a_generator_only_on_a_tie(monkeypatch):
    tie = np.array([1.0, 0.5, 1.0, 1.0])
    expected = [choose_label(tie, np.random.default_rng([s, 5])) for s in range(16)]
    assert [choose_label(tie, [s, 5]) for s in range(16)] == expected

    def no_generator(seed=None):
        raise AssertionError("a generator was built without a tie")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert choose_label(np.array([0.5, 2.0, 1.0]), [0, 5]) == 1


# ---------------------------------------------------------------------------
# handle_isolated
# ---------------------------------------------------------------------------


def test_isolated_ball_vote_single_green_neighbor():
    t = table_for({1: 0}, {0})
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = handle_isolated(t, 0, epsilon_death=0.75, dist=dist, extensions={})  # ball radius 1.5
    assert got == pytest.approx([1.0, 0.0])


def test_isolated_empty_ball_is_zero_vector():
    t = table_for({1: 0}, {0})
    dist = np.array([[0.0, 9.0], [9.0, 0.0]])
    got = handle_isolated(t, 0, epsilon_death=0.75, dist=dist, extensions={})
    assert got.tolist() == [0.0, 0.0]


def test_isolated_equidistant_training_ties():
    t = table_for({1: 0, 2: 1}, {0})
    dist = np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
    )
    got = handle_isolated(t, 0, epsilon_death=1.0, dist=dist, extensions={})
    assert got[0] == pytest.approx(got[1])
    assert got[0] > 0


def test_isolated_test_neighbor_contributes_its_extension():
    """A test vertex inside the ball passes along its own accumulated vector."""
    # Test vertex 1 linked to green vertex 2.
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((1, 2), 0.5)])
    t = table_for({2: 0}, {0, 1})
    dist = np.array(
        [[0.0, 1.0, 9.0], [1.0, 0.0, 0.5], [9.0, 0.5, 0.0]]
    )
    got = handle_isolated(
        t, 0, epsilon_death=0.6, dist=dist, extensions={1: extend(cx, t, 1)}
    )
    # vertex 1's extension is (1/0.5) = 2 toward green; passed on at 1/f(0,1) = 1
    assert got == pytest.approx([2.0, 0.0])


# ---------------------------------------------------------------------------
# handle_unlabeled_link
# ---------------------------------------------------------------------------


def test_unlabeled_chain_reaches_label_at_depth_two():
    """Chain v - x - s with unit edges: the green label arrives at weight 1/2."""
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((0, 1), 1.0), ((1, 2), 1.0)])
    t = table_for({2: 0}, {0, 1})
    got = handle_unlabeled_link(cx, t, 0)
    assert got == pytest.approx([0.5, 0.0])


def test_unlabeled_component_without_training_is_zero():
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((0, 1), 1.0)])
    t = table_for({2: 0}, {0, 1})
    got = handle_unlabeled_link(cx, t, 0)
    assert got.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# classify_all end to end
# ---------------------------------------------------------------------------


def blob_fixture():
    rng = np.random.default_rng(0)
    a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(20, 2))
    b = rng.normal(loc=(6.0, 0.0), scale=0.3, size=(20, 2))
    points = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    test = {0, 1, 20, 21}
    training = {i: int(labels[i]) for i in range(40) if i not in test}
    table = AssociationTable(training, frozenset(test), 2)
    dist = pairwise_distances(points)
    cx = build_rips(dist, RipsConfig(max_dim=2, budget=200_000))
    return cx, boundary_reduce(cx), table, dist


def test_separable_blobs_classified_perfectly():
    cx, diagram, table, dist = blob_fixture()
    preds = classify_all(cx, diagram, table, SelectionPolicy(), dist)
    assert len(preds) == 4
    for p in preds:
        assert p.label == (0 if p.vertex < 20 else 1)


def test_every_test_vertex_predicted_exactly_once():
    cx, diagram, table, dist = blob_fixture()
    preds = classify_all(cx, diagram, table, SelectionPolicy(), dist)
    assert sorted(p.vertex for p in preds) == sorted(table.test_vertices)


def test_probabilities_sum_to_one_when_scores_nonzero():
    cx, diagram, table, dist = blob_fixture()
    for p in classify_all(cx, diagram, table, SelectionPolicy(), dist):
        if any(s > 0 for s in p.scores):
            assert sum(p.probability) == pytest.approx(1.0)


def test_provenances_are_known_kinds():
    cx, diagram, table, dist = blob_fixture()
    kinds = {"link", "isolated", "unlabeled_link", "global_fallback"}
    for p in classify_all(cx, diagram, table, SelectionPolicy(), dist):
        assert p.provenance in kinds


def test_classify_requires_training_data():
    cx = FilteredComplex([((0,), 0.0), ((1,), 0.0)])
    table = AssociationTable({}, frozenset({0, 1}), 2)
    diagram = boundary_reduce(cx)
    with pytest.raises(NoLabeledData):
        classify_all(cx, diagram, table, SelectionPolicy(), np.zeros((2, 2)))


def test_global_fallback_predicts_majority():
    """Test vertices too far for any heuristic get the majority training class."""
    points = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [500.0, 500.0]])
    dist = pairwise_distances(points)
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=1.0))
    diagram = boundary_reduce(cx)
    table = AssociationTable({0: 1, 1: 1, 2: 0}, frozenset({3}), 2)
    (pred,) = classify_all(cx, diagram, table, SelectionPolicy(), dist)
    assert pred.provenance == "global_fallback"
    assert pred.label == 1


def test_classification_is_seed_deterministic():
    cx, diagram, table, dist = blob_fixture()
    a = classify_all(cx, diagram, table, SelectionPolicy(rng_seed=5), dist)
    b = classify_all(cx, diagram, table, SelectionPolicy(rng_seed=5), dist)
    assert [(p.vertex, p.label, p.provenance) for p in a] == [
        (p.vertex, p.label, p.provenance) for p in b
    ]
