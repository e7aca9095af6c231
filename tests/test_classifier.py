"""Unit and property tests for label association, extension, and prediction."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tdabc.baselines as baselines
import tdabc.classifier as classifier
from tdabc.classifier import (
    EPSILON_FLOOR,
    AssociationTable,
    associate,
    classify_all,
    extend,
    handle_isolated,
    handle_unlabeled_link,
    majority_class,
    predict,
)
from tdabc.complexes import FilteredComplex
from tdabc.datasets import make_imbalance_ramp
from tdabc.errors import DimensionMismatch, InvalidAssociation, InvalidConfig, NoLabeledData
from tdabc.evaluation import FoldPlan, TdabcSpec, default_classifiers, stratified_splits
from tdabc.persistence import boundary_reduce
from tdabc.rips import RipsConfig, build_rips, pairwise_distances
from tdabc.selection import SelectionPolicy

from conftest import prediction_rows, random_association, random_monotone_complex, random_rips
import oracles
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
    got = extend(cx, t, [0])[0][0]
    assert got == pytest.approx([2.0, 1.0])


def test_extend_isolated_vertex_is_zero():
    cx = FilteredComplex([((0,), 0.0), ((1,), 0.0)])
    t = table_for({1: 0}, {0})
    assert extend(cx, t, [0])[0][0].tolist() == [0.0, 0.0]


def test_inverse_weights_break_raw_count_ties():
    """Equal label counts resolve toward the class clustered at smaller values."""
    cx = FilteredComplex(
        [((v,), 0.0) for v in (0, 1, 2)]
        + [((0, 1), 0.25), ((0, 2), 2.0)]  # nearby green, distant red
    )
    t = table_for({1: 0, 2: 1}, {0})
    scores = extend(cx, t, [0])[0][0]
    assert scores[0] > scores[1]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extension_forms_agree(seed):
    rng = np.random.default_rng(seed)
    cx = random_rips(rng, max_points=10)
    t = random_association(rng, cx)
    for v in sorted(t.test_vertices):
        a = extend(cx, t, [v])[0][0]
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
    complex, a sublevel sub-complex and a lifespan band, with vertex ids
    0..n-1 or wide ids from 2^31 up."""
    rng = np.random.default_rng(seed)
    cx = random_rips(rng, max_points=12)
    scale = [None, 1, 10**12][int(rng.integers(3))]
    if scale is not None:
        cx = FilteredComplex((tuple(2**31 + scale * v for v in s), cx.value(s)) for s in cx.order)
    table = random_association(rng, cx, n_classes=int(rng.integers(2, 4)))
    subs = [cx, cx.subcomplex_at(float(rng.uniform(0.0, cx.max_value)))]
    candidates = boundary_reduce(cx).candidates
    if candidates:
        d = candidates[int(rng.integers(len(candidates)))]
        subs.append(cx.band(d.birth, min(d.death, cx.max_value)))
    ids = cx.vertex_ids.tolist()
    queried = rng.permutation(ids + [ids[-1] + 1, ids[-1] + 2]).tolist()  # two ids in no complex
    queried.append(queried[0])
    for sub in subs:
        assert sub.rows[2] is cx.rows[2]  # restrictions rank into their parent's ids
        rows, cofaces = extend(sub, table, queried)
        for v, got, count in zip(queried, rows, cofaces):
            if (v,) in sub:
                assert np.array_equal(got, star_loop_extension(sub, table, v))
                assert np.array_equal(extend(sub, table, [v])[0][0], got)
                assert count == len(sub.star((v,))) - 1
            else:
                assert not got.any() and count == 0


def test_extend_all_of_no_vertices_is_empty():
    t = table_for({1: 0, 2: 1}, {0})
    rows, cofaces = extend(star_complex(), t, [])
    assert rows.shape == (0, 2) and cofaces.shape == (0,)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extension_scores_are_non_negative(seed):
    rng = np.random.default_rng(seed)
    cx = random_rips(rng, max_points=10)
    t = random_association(rng, cx)
    for v in sorted(t.test_vertices):
        assert (extend(cx, t, [v])[0][0] >= 0.0).all()


def test_extension_lookups_are_sized_by_the_vertex_count():
    """Three vertices, one with id 2e7: the lookups span three entries, not
    the id range, and the scores still equal the star loop's."""
    big = 20_000_000
    cx = FilteredComplex(
        [((0,), 0.0), ((1,), 0.0), ((big,), 0.0), ((0, 1), 0.5), ((1, big), 1.0)]
    )
    table = table_for({0: 0, big: 1}, {1})
    queried = [1, 0, big, 7]
    tracemalloc.start()
    try:
        rows, _ = extend(cx, table, queried)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    for v, got in zip(queried[:3], rows):
        assert np.array_equal(got, star_loop_extension(cx, table, v))
    assert rows[0].tolist() == [2.0, 1.0] and not rows[3].any()


# ---------------------------------------------------------------------------
# predict: the label rule over a block of score rows
# ---------------------------------------------------------------------------


def predict_rows(rows, seed):
    """The block rule on ``rows``, for test vertices 5, 6, ..."""
    scores = np.array(rows, dtype=float)
    vertices = list(range(5, 5 + len(scores)))
    table = table_for({0: 1, 1: 1, 2: 0}, vertices, n_classes=scores.shape[1])
    return predict(table, vertices, scores, seed, ["link"] * len(vertices))


def test_choose_label_unique_max():
    (p,) = predict_rows([[2.0, 1.0]], 0)
    assert (p.label, p.provenance) == (0, "link")


def test_choose_label_zero_scores_is_none():
    """No positive score: the majority class, at uniform probability."""
    (p,) = predict_rows([[0.0, 0.0, 0.0]], 0)
    assert (p.label, tuple(p.probability), p.provenance) == (1, (1 / 3,) * 3, "global_fallback")


def test_choose_label_tie_is_seed_deterministic():
    picks = {predict_rows([[1.0, 1.0]], 7)[0].label for _ in range(5)}
    assert len(picks) == 1
    assert picks.pop() in (0, 1)


def test_choose_label_tie_covers_both_classes_across_seeds():
    picks = {predict_rows([[1.0, 1.0]], s)[0].label for s in range(32)}
    assert picks == {0, 1}


def test_choose_label_seeds_a_generator_only_on_a_tie(monkeypatch):
    tie = [1.0, 0.5, 1.0, 1.0]
    expected = [[0, 2, 3][np.random.default_rng([s, 5]).integers(3)] for s in range(16)]
    assert [predict_rows([tie], s)[0].label for s in range(16)] == expected

    def no_generator(seed=None):
        raise AssertionError("a generator was built without a tie")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    got = predict_rows([[0.5, 2.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]], 0)
    assert [p.label for p in got] == [1, 1, 0]


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_block_predict_equals_the_per_vertex_rule(seed):
    """Row for row, the block rule gives the per-vertex oracle's prediction,
    on integer and float scores with ties, all-zero rows and empty blocks."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 13))
    n_rows = int(rng.integers(0, 9))
    kind = rng.integers(3)
    if kind == 0:  # small integers: ties are common
        scores = rng.integers(0, 3, size=(n_rows, n_classes)).astype(float)
    elif kind == 1:  # a few float values shared across cells
        pool = np.append(rng.exponential(size=3) * 10.0 ** rng.integers(-6, 6), 0.0)
        scores = rng.choice(pool, size=(n_rows, n_classes))
    else:
        scores = rng.exponential(size=(n_rows, n_classes))
    scores[rng.random(n_rows) < 0.25] = 0.0
    vertices = sorted(rng.choice(1000, size=n_rows, replace=False).tolist())
    training = {v: int(rng.integers(n_classes)) for v in range(1000, 1000 + n_classes)}
    table = AssociationTable(training, frozenset(vertices), n_classes)
    kinds = rng.choice(["link", "isolated", "unlabeled_link", "baseline"], size=n_rows).tolist()
    want = [
        oracles.predict(table, v, row, seed, k) for v, row, k in zip(vertices, scores, kinds)
    ]
    assert prediction_rows(predict(table, vertices, scores, seed, kinds)) == want


def test_each_classifier_labels_in_one_call(monkeypatch):
    calls = []

    def counted(table, vertices, *rest):
        calls.append(len(vertices))
        return predict(table, vertices, *rest)

    monkeypatch.setattr(classifier, "predict", counted)
    monkeypatch.setattr(baselines, "predict", counted)
    cx, diagram, table, dist = blob_fixture()
    classify_all(cx, diagram, table, SelectionPolicy(), dist)
    baselines.knn_predict_all(dist, table, baselines.KnnConfig(k=3))
    assert calls == [len(table.test_vertices)] * 2


# ---------------------------------------------------------------------------
# handle_isolated
# ---------------------------------------------------------------------------


def votes_for(table, n, extensions=None):
    """Vote rows of ``n`` vertices: a one-hot label per training vertex, the
    given extension row per test vertex, zeros elsewhere."""
    votes = np.zeros((n, table.n_classes))
    for v, lab in table.training.items():
        votes[v, lab] = 1.0
    for v, row in (extensions or {}).items():
        votes[v] = row
    return votes


def test_isolated_ball_vote_single_green_neighbor():
    t = table_for({1: 0}, {0})
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    # ball radius 1.5
    (got,) = handle_isolated([0], epsilon_death=0.75, dist=dist, votes=votes_for(t, 2))
    assert got == pytest.approx([1.0, 0.0])


def test_isolated_empty_ball_is_zero_vector():
    t = table_for({1: 0}, {0})
    dist = np.array([[0.0, 9.0], [9.0, 0.0]])
    (got,) = handle_isolated([0], epsilon_death=0.75, dist=dist, votes=votes_for(t, 2))
    assert got.tolist() == [0.0, 0.0]


def test_isolated_equidistant_training_ties():
    t = table_for({1: 0, 2: 1}, {0})
    dist = np.array(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
    )
    (got,) = handle_isolated([0], epsilon_death=1.0, dist=dist, votes=votes_for(t, 3))
    assert got[0] == pytest.approx(got[1])
    assert got[0] > 0


def test_tally_sums_in_float64_with_no_vote():
    none = np.empty(0, dtype=np.intp)
    got = classifier.tally(none, none, np.empty(0), 2, 3)
    assert got.dtype == np.float64 and got.shape == (2, 3) and not got.any()


def test_ball_vote_is_kept_when_no_test_vertex_has_a_labeled_coface():
    """Vertex 4 has no coface, so the call's extension casts no vote at all;
    its ball vote must still reach the scores whole, not cut to integers."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.2, 0.3]])
    dist = pairwise_distances(points)
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=1.2))
    table = table_for({0: 1, 1: 0, 2: 1, 3: 1}, {4})
    (got,) = classify_all(cx, boundary_reduce(cx), table, SelectionPolicy(), dist)
    want = 1.0 / dist[4, [1, 2]]  # within twice the chosen death: only vertices 1 and 2
    assert got.provenance == "isolated"
    assert got.label == 0
    assert got.scores.tolist() == pytest.approx(want.tolist())


def test_isolated_test_neighbor_contributes_its_extension():
    """A test vertex inside the ball passes along its own accumulated vector."""
    # Test vertex 1 linked to green vertex 2.
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((1, 2), 0.5)])
    t = table_for({2: 0}, {0, 1})
    dist = np.array(
        [[0.0, 1.0, 9.0], [1.0, 0.0, 0.5], [9.0, 0.5, 0.0]]
    )
    votes = votes_for(t, 3, {1: extend(cx, t, [1])[0][0]})
    (got,) = handle_isolated([0], epsilon_death=0.6, dist=dist, votes=votes)
    # vertex 1's extension is (1/0.5) = 2 toward green; passed on at 1/f(0,1) = 1
    assert got == pytest.approx([2.0, 0.0])


@st.composite
def ball_votes(draw):
    """An integer-grid cloud (so distances tie often), a training/test split
    with at least one training vertex, test extension rows that are often
    zero, and an epsilon."""
    n = draw(st.integers(2, 9))
    dim = draw(st.integers(1, 2))
    points = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                    min_size=n, max_size=n)), dtype=float)
    n_classes = draw(st.integers(2, 4))
    labels = draw(st.lists(st.one_of(st.none(), st.integers(0, n_classes - 1)),
                           min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = draw(st.integers(0, n_classes - 1))
    table = AssociationTable({v: lab for v, lab in enumerate(labels) if lab is not None},
                             frozenset(v for v, lab in enumerate(labels) if lab is None),
                             n_classes)
    cell = st.one_of(st.just(0.0), st.integers(1, 4).map(float),
                     st.floats(0.01, 5.0, allow_nan=False))
    extensions = {}
    for v in sorted(table.test_vertices):
        zero = draw(st.booleans())
        row = [0.0] * n_classes if zero else draw(
            st.lists(cell, min_size=n_classes, max_size=n_classes))
        extensions[v] = np.array(row)
    epsilon = draw(st.sampled_from([0.0, 0.5, 0.7071067811865476, 1.0, 1.5]) | st.floats(0.0, 3.0))
    return table, pairwise_distances(points), extensions, epsilon


@given(ball_votes())
@settings(max_examples=200, deadline=None)
def test_block_isolated_vote_equals_the_per_vertex_loop(case):
    table, dist, extensions, epsilon = case
    block = sorted(table.test_vertices)
    got = handle_isolated(block, epsilon, dist, votes_for(table, len(dist), extensions))
    want = np.array([oracles.handle_isolated(table, v, epsilon, dist, extensions) for v in block])
    assert np.array_equal(got, want.reshape(len(block), table.n_classes))


# ---------------------------------------------------------------------------
# handle_unlabeled_link
# ---------------------------------------------------------------------------


def test_unlabeled_chain_reaches_label_at_depth_two():
    """Chain v - x - s with unit edges: the green label arrives at weight 1/2."""
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((0, 1), 1.0), ((1, 2), 1.0)])
    t = table_for({2: 0}, {0, 1})
    got = handle_unlabeled_link(cx, t, 0)
    assert got == pytest.approx([0.5, 0.0])


def test_unlabeled_walk_stops_at_the_nearest_labeled_ring():
    """Chain 0 - 1 - 2 with 1 - 3 - 4 branching off, unit edges, only 2 and 4
    labeled.  Vertex 1's star is the first to hold a label (2's, at weight
    1/2), so the walk stops there: the label of 4, one ring further out, would
    have added 1/3 to class 1."""
    edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
    cx = FilteredComplex([((v,), 0.0) for v in range(5)] + [(e, 1.0) for e in edges])
    t = table_for({2: 0, 4: 1}, {0, 1, 3})
    got = handle_unlabeled_link(cx, t, 0)
    assert got.tolist() == [0.5, 0.0]


def test_unlabeled_component_without_training_is_zero():
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((0, 1), 1.0)])
    t = table_for({2: 0}, {0, 1})
    got = handle_unlabeled_link(cx, t, 0)
    assert got.tolist() == [0.0, 0.0]


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=300, deadline=None)
def test_unlabeled_walk_takes_labels_only_from_the_rim_of_its_test_region(seed, rips):
    """For every test vertex whose star holds no training vertex (what
    ``classify_all`` guarantees before it walks), the walk scores a class if
    and only if a breadth-first search along test-test edges reaches a vertex
    with a training neighbour, and every class it scores is the label of
    such a neighbour.  A Rips complex is drawn with no edge cap, so it is
    restricted at a random threshold to leave some test vertices without
    training neighbours."""
    rng = np.random.default_rng(seed)
    if rips:
        cx = random_rips(rng, max_points=9)
        cx = cx.subcomplex_at(float(rng.uniform(0.0, cx.max_value)))
    else:
        cx = random_monotone_complex(rng, max_vertices=9)
    assume(cx.vertex_count >= 2)  # room for a test and a training vertex
    table = random_association(rng, cx, n_classes=int(rng.integers(2, 4)))
    neighbours = {v: set() for v in cx.vertex_ids.tolist()}
    for s in cx.order:
        if len(s) == 2:
            neighbours[s[0]].add(s[1])
            neighbours[s[1]].add(s[0])
    for v in sorted(table.test_vertices):
        if any(u in table.training for u in neighbours[v]):
            continue
        reached, frontier = {v}, [v]
        while frontier:
            w = frontier.pop()
            for u in neighbours[w] - reached:
                if u in table.test_vertices:
                    reached.add(u)
                    frontier.append(u)
        rim = {table.training[u] for w in reached for u in neighbours[w] if u in table.training}
        got = handle_unlabeled_link(cx, table, v)
        assert (got > 0.0).any() == bool(rim)
        assert set(np.flatnonzero(got > 0.0).tolist()) <= rim


def test_a_restrictions_walk_equals_the_walk_on_a_built_copy():
    """On a prefix, which reads its parent's tuple index up to its cut, and on
    lifespan bands, which build their own, the walk from every test vertex
    whose star holds no label gives the bytes of the walk on a complex built
    from the same (simplex, value) pairs.  One or two training vertices leave
    most stars unlabeled, so the walks go past them."""
    scored = {"prefix": 0, "band": 0}
    for seed in range(80):
        rng = np.random.default_rng(seed)
        if seed % 2:
            cx = random_rips(rng, max_points=10)
        else:
            cx = random_monotone_complex(rng, max_vertices=9)
        ids = cx.vertex_ids.tolist()
        training = rng.permutation(ids)[: int(rng.integers(1, 3))].tolist()
        table = table_for({v: i for i, v in enumerate(training)},
                          [v for v in ids if v not in training])
        subs = [("prefix", cx.subcomplex_at(float(rng.uniform(0.0, cx.max_value))))]
        for d in list(boundary_reduce(cx).candidates)[:3]:
            subs.append(("band", cx.band(d.birth, min(d.death, cx.max_value))))
        for kind, sub in subs:
            copy = FilteredComplex((s, sub.value(s)) for s in sub.order)
            for v in sorted(table.test_vertices):
                if (v,) in copy and any(associate(table, mu).any() for mu in copy.star((v,))):
                    continue
                got = handle_unlabeled_link(sub, table, v)
                assert got.tobytes() == handle_unlabeled_link(copy, table, v).tobytes()
                scored[kind] += bool(got.any())
    assert min(scored.values()) > 0  # both kinds walked out to a label


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


def test_classify_rejects_a_table_of_another_vertex_count():
    cx, diagram, table, dist = blob_fixture()
    short = AssociationTable(table.training, table.test_vertices - {0}, 2)
    with pytest.raises(InvalidAssociation):
        classify_all(cx, diagram, short, SelectionPolicy(), dist)


def test_classify_rejects_a_table_of_other_vertex_ids():
    """Same count, different ids: vertex 7 is not in the complex."""
    cx = FilteredComplex([((v,), 0.0) for v in (0, 1, 2)] + [((0, 1), 0.5)])
    table = AssociationTable({0: 0, 1: 1}, frozenset({7}), 2)
    dist = np.ones((8, 8)) - np.eye(8)
    with pytest.raises(InvalidAssociation):
        classify_all(cx, boundary_reduce(cx), table, SelectionPolicy(), dist)


def test_classify_and_knn_reject_a_distance_matrix_that_misses_vertex_ids():
    """Too few rows for the vertex ids, or not square: a typed error, not numpy's IndexError."""
    cx, diagram, table, dist = blob_fixture()
    for short in (dist[:8, :8], dist[:, :-1]):
        with pytest.raises(DimensionMismatch):
            classify_all(cx, diagram, table, SelectionPolicy(), short)
        with pytest.raises(DimensionMismatch):
            baselines.knn_predict_all(short, table, baselines.KnnConfig(k=3))


def test_classify_requires_training_data():
    cx = FilteredComplex([((0,), 0.0), ((1,), 0.0)])
    table = AssociationTable({}, frozenset({0, 1}), 2)
    diagram = boundary_reduce(cx)
    with pytest.raises(NoLabeledData):
        classify_all(cx, diagram, table, SelectionPolicy(), np.zeros((2, 2)))


def test_negative_seeds_are_refused_before_any_work():
    """Each input would fail later for another reason, and knn's vote has no
    tie: the seed is checked first, not when a tie is drawn."""
    cx, diagram, table, dist = blob_fixture()
    untrained = AssociationTable({}, frozenset(range(40)), 2)
    with pytest.raises(InvalidConfig, match="seed"):
        classify_all(cx, diagram, untrained, SelectionPolicy(), dist, seed=-1)
    with pytest.raises(InvalidConfig, match="seed"):
        baselines.knn_predict_all(dist, table, baselines.KnnConfig(k=1000), seed=-1)
    with pytest.raises(InvalidConfig, match="seed"):
        baselines.knn_predict_all(dist, table, baselines.KnnConfig(k=3), seed=-1)


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
    a = classify_all(cx, diagram, table, SelectionPolicy(), dist, seed=5)
    b = classify_all(cx, diagram, table, SelectionPolicy(), dist, seed=5)
    assert [(p.vertex, p.label, p.provenance) for p in a] == [
        (p.vertex, p.label, p.provenance) for p in b
    ]


# ---------------------------------------------------------------------------
# A fold's shared work
# ---------------------------------------------------------------------------


def test_a_fold_shares_its_extension_and_no_bit_moves(monkeypatch):
    """The roster's tdabc specs on one fold table of ramp step 16: ``extend``
    runs once per recovered sub-complex, the unlabeled-link walk once per
    (sub-complex, vertex), and every record equals a fresh table's.  The
    isolated and unlabeled-link rules fire here, so a shared row that one
    policy's fallback wrote would show in the next policy's records.  The
    ball vote reads each test vertex's extension row, not the row its walk
    found."""
    data = make_imbalance_ramp(16)
    dist = pairwise_distances(data.points)
    cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=0.3))
    diagram = boundary_reduce(cx)
    _, _, train, test = stratified_splits(data.labels, FoldPlan(5, 1, 0))[0]
    training = {int(v): int(data.labels[v]) for v in train}
    tests = frozenset(int(v) for v in test)
    specs = [spec for spec in default_classifiers() if isinstance(spec, TdabcSpec)]
    assert "rand" in {spec.selector for spec in specs}

    def fresh(spec):
        return classify_all(cx, diagram, AssociationTable(training, tests, 2), spec, dist, seed=3)

    want = [fresh(spec) for spec in specs]
    subs = []

    def counted(sub, *rest):
        subs.append(sub)
        return extend(sub, *rest)

    walks = []

    def walked(sub, table, v):
        walks.append((id(sub), v))
        return handle_unlabeled_link(sub, table, v)

    balls = []

    def voted(vertices, epsilon_death, dist, votes):
        balls.append(votes)
        return handle_isolated(vertices, epsilon_death, dist, votes)

    monkeypatch.setattr(classifier, "extend", counted)
    monkeypatch.setattr(classifier, "handle_unlabeled_link", walked)
    monkeypatch.setattr(classifier, "handle_isolated", voted)
    table = AssociationTable(training, tests, 2)
    got = [classify_all(cx, diagram, table, spec, dist, seed=3) for spec in specs]
    assert len(subs) == len({id(sub) for sub in subs}) == 2
    assert walks and len(walks) == len(set(walks))
    ordered = sorted(tests)
    extensions = [extend(sub, table, ordered)[0] for sub in subs]
    assert len(balls) == len(specs)
    for votes in balls:
        assert any(np.array_equal(votes[ordered], rows) for rows in extensions)
    kinds = {kind for preds in got for kind in preds.provenance}
    assert {"isolated", "unlabeled_link"} <= kinds
    assert [prediction_rows(p) for p in got] == [prediction_rows(p) for p in want]


def test_recovered_prefixes_share_the_index_and_make_no_cycle():
    """With the cycle collector off, the roster's tdabc specs classify one
    ramp-16 fold.  Each recovered prefix reads its parent's tuple index, and
    once the complex and its diagram are dropped the complex is freed by
    reference counts alone: no prefix refers back to it."""
    data = make_imbalance_ramp(16)
    dist = pairwise_distances(data.points)
    _, _, train, test = stratified_splits(data.labels, FoldPlan(5, 1, 0))[0]
    table = AssociationTable({int(v): int(data.labels[v]) for v in train},
                             frozenset(int(v) for v in test), 2)
    specs = [spec for spec in default_classifiers() if isinstance(spec, TdabcSpec)]
    assert len(specs) == 3
    gc.collect()
    gc.disable()
    try:
        cx = build_rips(dist, RipsConfig(max_dim=2, max_edge=0.3))
        diagram = boundary_reduce(cx)
        kinds = set()
        for spec in specs:
            kinds.update(classify_all(cx, diagram, table, spec, dist, seed=3).provenance)
        assert "unlabeled_link" in kinds
        prefixes = [sub for (lo, _), sub in cx._restrictions.items() if lo == 0]
        assert prefixes and all(sub._tuples is cx._tuples for sub in prefixes)
        assert cx._tuples.cache_info().currsize == 1
        complex_ref = weakref.ref(cx)
        del cx, diagram, prefixes
        assert complex_ref() is None
    finally:
        gc.enable()


def test_a_kept_table_holds_no_complex_or_distances_alive(monkeypatch):
    """A table outlives its fold in the benchmark's capture: once the complex
    and the distance matrix are dropped, its memos must not keep the
    recovered sub-complex or ``dist`` alive."""
    subs = []

    def recorded(sub, *rest):
        subs.append(weakref.ref(sub))
        return extend(sub, *rest)

    monkeypatch.setattr(classifier, "extend", recorded)
    cx, diagram, table, dist = blob_fixture()
    classify_all(cx, diagram, table, SelectionPolicy(), dist)
    baselines.knn_predict_all(dist, table, baselines.KnnConfig(k=3))
    assert len(subs) == len(table._extensions) == len(table._neighbours) == 1
    dist_ref = weakref.ref(dist)
    del cx, diagram, dist
    gc.collect()
    assert subs[0]() is None
    assert dist_ref() is None
    assert len(table._extensions) == 0
