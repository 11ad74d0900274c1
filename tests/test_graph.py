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

    @pytest.mark.parametrize("edges, canonical", [
        ([[2, 3], [1, 2], [0, 1]], [[0, 1], [1, 2], [2, 3]]),
        ([[0, 1], [0, 1], [1, 2]], [[0, 1], [1, 2]]),
        ([[1, 0]], [[0, 1]]),
        ([[1, 1]], np.zeros((0, 2))),
    ], ids=["unsorted", "duplicate", "reversed_edge", "self_loop"])
    def test_edges_are_canonicalized(self, edges, canonical):
        g = make_graph(4, [], [0, 1, 1, 0], 2)
        held = Graph(edges=np.array(edges), features=g.features, labels=g.labels, split=g.split,
                     num_classes=2).edges
        assert held.dtype == np.int64
        np.testing.assert_array_equal(held, np.asarray(canonical).reshape(-1, 2))

    @pytest.mark.parametrize("field, value, message", [
        ("features", np.ones(3), "features must be (N, d) with N >= 1 nodes, got (3,)"),
        ("features", np.ones((0, 2)), "features must be (N, d) with N >= 1 nodes, got (0, 2)"),
        ("edges", np.array([[0, 1, 1, 2]]), "edges must be (E, 2), got (1, 4)"),
        ("edges", np.array([0, 1]), "edges must be (E, 2), got (2,)"),
        ("labels", np.zeros(2, dtype=np.int64), "labels must be a length-N vector"),
        ("split", np.zeros(4, dtype=np.int64), "split must be a length-N vector"),
        ("edges", [[0.7, 1.9]], "edges must hold integers (got 'float64')"),
        ("edges", np.array([[True, False]]), "edges must hold integers (got 'bool')"),
        ("labels", [0.9, 1.2, 1.99], "labels must hold integers (got 'float64')"),
        ("split", [0.5, 2.7, 0.0], "split must hold integers (got 'float64')"),
        ("num_classes", 2.5, "num_classes must be an int >= 1 (got 2.5)"),
        ("num_classes", True, "num_classes must be an int >= 1 (got True)"),
        ("num_classes", np.int64(2), f"num_classes must be an int >= 1 (got {np.int64(2)!r})"),
        ("num_classes", 0, "num_classes must be an int >= 1 (got 0)"),
        # An unsigned value past int64 is named as passed, not wrapped to a negative int64.
        ("edges", np.array([[0, 2**63]], dtype=np.uint64),
         f"edges row 0 holds [0, {2**63}], outside [0, 3) (got {2**63})"),
        ("labels", np.array([0, 1, 2**63], dtype=np.uint64),
         f"labels row 2 holds {2**63}, outside [0, 2) (got {2**63})"),
        ("split", np.array([0, 2**64 - 1, 0], dtype=np.uint64),
         f"split row 1 holds {2**64 - 1}, outside [0, 4) (got {2**64 - 1})"),
    ], ids=["features_1d", "no_nodes", "edges_1x4", "edges_1d", "short_labels", "long_split",
            "float_edges", "bool_edges", "float_labels", "float_split", "float_classes",
            "bool_classes", "numpy_int_classes", "zero_classes", "uint64_edges_past_int64",
            "uint64_labels_past_int64", "uint64_split_past_int64"])
    def test_rejects_malformed_field(self, field, value, message):
        g = make_graph(3, [(0, 1)], [0, 1, 1], 2)
        fields = dict(edges=g.edges, features=g.features, labels=g.labels, split=g.split,
                      num_classes=2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(**{**fields, field: value})

    @pytest.mark.parametrize("edges, shape", [
        ([[0, 1, 1, 2]], "(1, 4)"), ([0, 1, 1, 2], "(4,)"), ([], "(0,)"),
    ], ids=["1x4", "1d", "empty_1d"])
    def test_canonical_edges_rejects_a_shape_other_than_e_by_2(self, edges, shape):
        message = f"edges must be (E, 2), got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            canonical_edges(np.array(edges, dtype=np.int64), 3)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_edges_are_the_graphs_own_array_and_the_callers_stay_writeable(self, dtype):
        g = make_graph(3, [(0, 1)], [0, 1, 1], 2)
        e = np.array([[0, 1], [1, 2]], dtype=dtype)
        held = Graph(edges=e, features=g.features, labels=g.labels, split=g.split,
                     num_classes=2).edges
        assert held.dtype == np.int64 and not held.flags.writeable
        assert e.flags.writeable and not np.shares_memory(held, e)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12),
           dtype=st.sampled_from([np.int64, np.int32, np.uint16]))
    def test_a_graph_is_the_graph_of_its_canonical_edges(self, data, n, dtype):
        # Any pairs: reversed, duplicated, self-loops, in any order.
        endpoint = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=40))
        raw = np.asarray(pairs, dtype=dtype).reshape(-1, 2)
        rng = np.random.default_rng(n)
        fields = dict(features=rng.normal(size=(n, 3)), labels=rng.integers(2, size=n),
                      split=rng.integers(4, size=n), num_classes=2)
        got = Graph(edges=raw, **fields)
        want = Graph(edges=canonical_edges(raw, n), **fields)
        for name in ("edges", "features", "labels", "split"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert got.num_classes == want.num_classes
        assert raw.flags.writeable

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
                f"k must satisfy 1 <= k <= C - c0 = 2 (got {k})")):
            build_session_plan(g, 2, k)

    def test_every_valid_plan_runs_the_class_ids_in_groups_of_c0_then_k(self):
        # Column j of the classifier's weights is class id j only for such groups.
        for c in range(2, 61):
            for c0 in range(1, c):
                for k in range(1, c - c0 + 1):
                    plan = SessionPlan(c, c0, k)
                    groups = plan.groups
                    assert [i for group in groups for i in group] == list(range(c))
                    sizes = [len(group) for group in groups]
                    assert sizes[0] == c0 and set(sizes[1:-1]) <= {k} and 1 <= sizes[-1] <= k
                    assert plan.num_sessions == len(groups)
                    assert plan.base_classes == groups[0]

    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(-2, 62), c0=st.integers(-2, 62), k=st.integers(-2, 62))
    def test_every_invalid_triple_raises_its_pinned_message(self, c, c0, k):
        if not 1 <= c0 < c:
            message = f"c0 must satisfy 1 <= c0 < C = {c} (got {c0})"
        elif not 1 <= k <= c - c0:
            message = f"k must satisfy 1 <= k <= C - c0 = {c - c0} (got {k})"
        else:
            SessionPlan(c, c0, k)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SessionPlan(c, c0, k)

    @pytest.mark.parametrize("field, args", [
        ("num_classes", (4.0, 1, 1)), ("num_classes", (np.int64(4), 1, 1)),
        ("c0", (4, 1.5, 1)), ("c0", (4, True, 1)),
        ("k", (4, 1, "1")), ("k", (4, 1, np.int32(1))), ("k", (4, 2, False)),
    ], ids=["num_classes_float", "num_classes_numpy_int", "c0_float", "c0_bool",
            "k_str", "k_numpy_int", "k_bool"])
    def test_fields_must_be_python_ints(self, field, args):
        value = args[("num_classes", "c0", "k").index(field)]
        with pytest.raises(FieldError) as info:
            SessionPlan(*args)
        assert info.value.field == field
        assert str(info.value) == f"{field} must be an int (got {value!r})"

    def test_default_base_size(self):
        assert default_base_size(7) == 4
        assert default_base_size(6) == 3

    @pytest.mark.parametrize("classes", [2, 6, 7])
    def test_no_base_size_gives_the_default(self, classes):
        g = make_graph(classes, [], list(range(classes)), classes)
        assert build_session_plan(g, None, 1).c0 == default_base_size(g.num_classes)


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

    # Cast by int(), 0.9 would read as class 0, and True, "1" and 1.7 as class 1.
    @pytest.mark.parametrize("class_set, rule", [
        ([0.9], "must hold integers (got 'float64')"),
        ([True], "must hold integers (got 'bool')"),
        (["1"], "must hold integers (got 'str32')"),
        ([np.float64(1.7)], "must hold integers (got 'float64')"),
        ([0, 3], "row 1 holds 3, outside [0, 3) (got 3)"),
        ({-1}, "row 0 holds -1, outside [0, 3) (got -1)"),
    ])
    def test_class_ids_follow_the_integer_rule(self, class_set, rule):
        g = make_graph(3, [], [0, 1, 2], 3)
        with pytest.raises(FieldError, match=f"^{re.escape('class_set ' + rule)}$") as info:
            session_subgraph(g, class_set)
        assert info.value.field == "class_set"

    @pytest.mark.parametrize("class_set", [(2, 0), {0, 2}, [2, 0, 2], range(0, 3, 2),
                                           np.array([2, 0], dtype=np.uint8),
                                           [np.int64(0), 2]])
    def test_any_iterable_of_integer_ids_is_accepted(self, class_set):
        g = make_graph(3, [(0, 2)], [0, 1, 2], 3)
        sub = session_subgraph(g, class_set)
        np.testing.assert_array_equal(sub.labels, [0, 2])
        np.testing.assert_array_equal(sub.edges, [(0, 1)])

    def test_empty_induced_set_rejected(self):
        g = make_graph(3, [], [0, 0, 1], 3)
        with pytest.raises(ValueError, match="no nodes"):
            session_subgraph(g, {2})
        with pytest.raises(ValueError, match="non-empty"):
            session_subgraph(g, set())

