import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgl.graph import (
    FieldError,
    Graph,
    SessionPlan,
    build_session_plan,
    canonical_edges,
    default_base_size,
    normalize_adjacency,
    session_subgraph,
)

from conftest import make_graph, random_graph


def dense_normalized(graph):
    """Independent O(N^2) reference: D^{-1/2} (A+I) D^{-1/2} on dense arrays."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    a_tilde = a + np.eye(n)
    d = a_tilde.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(d))
    return d_inv_sqrt @ a_tilde @ d_inv_sqrt


def two_product_normalized(graph):
    """Reference sparse construction: diagonal scaling on each side of A + I, as two products."""
    n = graph.num_nodes
    e = graph.edges
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    adjacency = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    a_tilde = adjacency + sp.eye_array(n, format="csr")
    d_inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    scale = sp.dia_array((d_inv_sqrt[None, :], [0]), shape=(n, n)).tocsr()
    return (scale @ a_tilde @ scale).tocsr()


@st.composite
def canonical_graphs(draw):
    """Canonical graphs of 1-12 nodes: empty, sparse, complete, isolated top id."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kind = draw(st.sampled_from(["none", "subset", "complete", "isolated_top"]))
    if kind == "none":
        chosen = []
    elif kind == "complete":
        chosen = pairs
    else:
        if kind == "isolated_top":
            pairs = [(i, j) for i, j in pairs if j < n - 1]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_graph(n, chosen, [0] * n, 1)


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = make_graph(1, [], [0], 1)
        np.testing.assert_allclose(normalize_adjacency(g).toarray(), [[1.0]])

    def test_single_edge_pair(self):
        g = make_graph(2, [(0, 1)], [0, 1], 2)
        expected = [[0.5, 0.5], [0.5, 0.5]]
        np.testing.assert_allclose(normalize_adjacency(g).toarray(), expected)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8)
        np.testing.assert_allclose(
            normalize_adjacency(g).toarray(), dense_normalized(g), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_agreement_up_to_50_nodes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        g = random_graph(rng, n, edge_prob=0.2)
        np.testing.assert_allclose(
            normalize_adjacency(g).toarray(), dense_normalized(g), atol=1e-12
        )

    def test_symmetric_and_positive_diagonal(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 25)
        a = normalize_adjacency(g).toarray()
        np.testing.assert_allclose(a, a.T, atol=1e-12)
        assert (a >= 0).all()
        assert (np.diag(a) > 0).all()

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 30)
        eig = np.linalg.eigvalsh(normalize_adjacency(g).toarray())
        assert eig.min() > -1.0 - 1e-10
        assert eig.max() <= 1.0 + 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 12)
        perm = rng.permutation(g.num_nodes)
        permuted = make_graph(
            g.num_nodes,
            np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1),
            np.asarray(g.labels)[np.argsort(perm)],
            g.num_classes,
        )
        a = normalize_adjacency(g).toarray()
        a_perm = normalize_adjacency(permuted).toarray()
        np.testing.assert_allclose(a_perm[np.ix_(perm, perm)], a, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(graph=canonical_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_bytes_match_two_product_reference(self, graph, seed):
        got, want = normalize_adjacency(graph), two_product_normalized(graph)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.has_sorted_indices
        m = np.random.default_rng(seed).normal(size=(graph.num_nodes, 3))
        assert (got @ m).tobytes() == (want @ m).tobytes()


@st.composite
def node_count_and_pairs(draw):
    """A node count, small or the largest canonical_edges takes, and endpoint pairs in range."""
    n = draw(st.one_of(st.integers(1, 12), st.just(3_037_000_499)))
    endpoint = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(endpoint, endpoint), max_size=40))


class TestGraphInvariants:
    def test_rejects_out_of_range_edge(self):
        with pytest.raises(FieldError, match=re.escape("edges row 0 holds [0, 99], outside [0, 3)")):
            canonical_edges(np.array([[0, 99]]), 3)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError, match="labels"):
            make_graph(3, [(0, 1)], [0, 1, 5], 2)

    @pytest.mark.parametrize("field, labels, split, rule", [
        ("labels", [0, 1, 5, -1], [0, 1, 2, 3], "row 2 holds 5, outside [0, 2)"),
        ("split", [0, 1, 1, 0], [0, -1, 4, 3], "row 1 holds -1, outside [0, 4)"),
    ])
    def test_out_of_range_code_names_its_field_and_row(self, field, labels, split, rule):
        g = make_graph(4, [(0, 1)], [0, 1, 1, 0], 2)
        with pytest.raises(FieldError) as info:
            Graph(edges=g.edges, features=g.features, labels=np.array(labels),
                  split=np.array(split), num_classes=2)
        assert (info.value.field, info.value.rule) == (field, rule)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        g = make_graph(3, [(0, 1)], [0, 1, 1], 2, d=2)
        features = np.array(g.features)
        features[1, 0] = features[2, 1] = bad
        with pytest.raises(FieldError, match="features non-finite feature in row 1"):
            Graph(edges=g.edges, features=features, labels=g.labels, split=g.split,
                  num_classes=2)

    def test_train_and_test_masks_are_split_codes_0_and_2(self):
        g = random_graph(np.random.default_rng(5), 30)
        assert set(g.split.tolist()) == {0, 1, 2}
        np.testing.assert_array_equal(g.train_mask, g.split == 0)
        np.testing.assert_array_equal(g.test_mask, g.split == 2)

    @pytest.mark.parametrize("edges", [
        [[2, 3], [1, 2], [0, 1]],   # canonical rows, reversed order
        [[0, 1], [0, 1], [1, 2]],   # duplicate row
    ])
    def test_rejects_unsorted_or_duplicate_edges(self, edges):
        g = make_graph(4, [], [0, 1, 1, 0], 2)
        with pytest.raises(ValueError, match="sorted and free of duplicates"):
            Graph(edges=np.array(edges), features=g.features, labels=g.labels, split=g.split,
                  num_classes=2)

    @pytest.mark.parametrize("field, value, message", [
        ("features", np.ones(3), "features must be (N, d) with N >= 1 nodes, got (3,)"),
        ("features", np.ones((0, 2)), "features must be (N, d) with N >= 1 nodes, got (0, 2)"),
        ("edges", np.array([[1, 0]]), "edges must be canonical (u < v, no self-loops)"),
        ("edges", np.array([[1, 1]]), "edges must be canonical (u < v, no self-loops)"),
        ("labels", np.zeros(2, dtype=np.int64), "labels must be a length-N vector"),
        ("split", np.zeros(4, dtype=np.int64), "split must be a length-N vector"),
    ], ids=["features_1d", "no_nodes", "reversed_edge", "self_loop", "short_labels",
            "long_split"])
    def test_rejects_malformed_field(self, field, value, message):
        g = make_graph(3, [(0, 1)], [0, 1, 1], 2)
        fields = dict(edges=g.edges, features=g.features, labels=g.labels, split=g.split,
                      num_classes=2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(**{**fields, field: value})

    def test_canonical_edges_dedupes_and_symmetrizes(self):
        edges = canonical_edges(np.array([[1, 0], [0, 1], [2, 2], [0, 1]]), 3)
        np.testing.assert_array_equal(edges, [[0, 1]])

    @settings(max_examples=150, deadline=None)
    @given(case=node_count_and_pairs())
    @example(case=(5, []))
    @example(case=(5, [(0, 0), (3, 3), (4, 4)]))
    @example(case=(5, [(1, 2), (2, 1), (1, 2), (0, 4), (4, 0)]))
    @example(case=(3_037_000_499, [(3_037_000_498, 3_037_000_497), (0, 0)]))
    def test_canonical_edges_matches_unique_oracle(self, case):
        n, pairs = case
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        loops_dropped = pairs[pairs[:, 0] != pairs[:, 1]]
        want = np.unique(np.sort(loops_dropped, axis=1), axis=0).reshape(-1, 2)
        got = canonical_edges(pairs, n)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_arrays_immutable(self):
        g = make_graph(3, [(0, 1)], [0, 1, 1], 2)
        with pytest.raises(ValueError):
            g.features[0, 0] = 1.0


class TestSessionPlan:
    def test_seven_classes_base_four(self):
        g = make_graph(7, [], list(range(7)), 7)
        plan = build_session_plan(g, 4, 1)
        assert [set(grp) for grp in plan.groups] == [{0, 1, 2, 3}, {4}, {5}, {6}]

    def test_six_classes_base_three_gives_four_sessions(self):
        g = make_graph(6, [], list(range(6)), 6)
        plan = build_session_plan(g, 3, 1)
        assert plan.num_sessions == 4

    def test_seventy_classes_increment_five(self):
        labels = np.arange(70)
        g = make_graph(70, [], labels, 70)
        plan = build_session_plan(g, 35, 5)
        assert plan.num_sessions == 1 + 7
        assert all(len(grp) == 5 for grp in plan.groups[1:])

    def test_groups_partition_classes_and_nodes(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 40, num_classes=5)
        plan = build_session_plan(g, 2, 2)
        all_classes = sorted(c for grp in plan.groups for c in grp)
        assert all_classes == list(range(5))
        group_of_node = [[i for i, grp in enumerate(plan.groups) if y in grp]
                         for y in g.labels]
        assert all(len(found) == 1 for found in group_of_node)

    def test_last_group_may_be_smaller(self):
        g = make_graph(7, [], list(range(7)), 7)
        plan = build_session_plan(g, 2, 2)
        assert [len(grp) for grp in plan.groups] == [2, 2, 2, 1]

    def test_base_too_large_rejected(self):
        g = make_graph(4, [], [0, 1, 2, 3], 4)
        with pytest.raises(ValueError):
            build_session_plan(g, 4, 1)
        with pytest.raises(ValueError):
            build_session_plan(g, 5, 1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_increment_out_of_range_rejected(self, k):
        g = make_graph(4, [], [0, 1, 2, 3], 4)
        with pytest.raises(ValueError, match=re.escape(
                f"increment size k={k} must satisfy 1 <= k <= C - c0 = 2")):
            build_session_plan(g, 2, k)

    @pytest.mark.parametrize("groups", [((1,), (0,)), ((0, 2), (1,)), ((0,), ()), ((1, 2),)])
    def test_groups_must_be_nonempty_and_run_0_1_in_order(self, groups):
        # Column j of the classifier's weights is class id j only for such groups.
        with pytest.raises(ValueError, match="empty class group|ids 0, 1, ... in order"):
            SessionPlan(groups=groups)

    def test_default_base_size(self):
        assert default_base_size(7) == 4
        assert default_base_size(6) == 3


class TestSessionSubgraph:
    def test_full_class_set_is_identity(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 15, num_classes=3)
        sub = session_subgraph(g, {0, 1, 2})
        assert sub.num_nodes == g.num_nodes
        np.testing.assert_array_equal(sub.edges, g.edges)
        np.testing.assert_array_equal(sub.features, g.features)
        np.testing.assert_array_equal(sub.labels, g.labels)

    def test_hand_enumerated_induced_subgraph(self):
        # 8 nodes, labels: 0,0,0,1,1,2,2,2. Classes {0,1} keep nodes 0..4.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 4), (2, 7)]
        g = make_graph(8, edges, [0, 0, 0, 1, 1, 2, 2, 2], 3)
        sub = session_subgraph(g, {0, 1})
        assert sub.num_nodes == 5
        # Surviving edges, by brute-force enumeration over the edge list.
        expected = sorted(
            (u, v) for u, v in edges if u <= 4 and v <= 4
        )
        np.testing.assert_array_equal(sub.edges, expected)
        np.testing.assert_array_equal(sub.labels, [0, 0, 0, 1, 1])

    def test_single_class_block_on_homophile_graph(self):
        from acgl.synthetic import generate_synthetic

        g = generate_synthetic(2, 4, 3, 1.0, seed=7)
        sub = session_subgraph(g, {0})
        assert sub.num_nodes == 4
        assert (sub.labels == 0).all()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 14), num_classes=st.integers(1, 4))
    def test_edges_are_the_canonical_induced_edges(self, data, n, num_classes):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
        g = make_graph(n, edges, labels, num_classes)
        present = sorted(set(labels))
        class_set = data.draw(st.sets(st.sampled_from(present), min_size=1))
        sub = session_subgraph(g, class_set)
        np.testing.assert_array_equal(sub.edges, canonical_edges(sub.edges, sub.num_nodes))
        keep = [i for i in range(n) if labels[i] in class_set]
        new_id = {old: new for new, old in enumerate(keep)}
        induced = sorted((new_id[u], new_id[v]) for u, v in g.edges.tolist()
                         if u in new_id and v in new_id)
        np.testing.assert_array_equal(sub.edges.reshape(-1, 2),
                                      np.asarray(induced, dtype=np.int64).reshape(-1, 2))

    def test_empty_induced_set_rejected(self):
        g = make_graph(3, [], [0, 0, 1], 3)
        with pytest.raises(ValueError, match="no nodes"):
            session_subgraph(g, {2})
        with pytest.raises(ValueError, match="non-empty"):
            session_subgraph(g, set())

