import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgl import harness, threads
from acgl.backbone import (
    BackboneConfig,
    BackboneParams,
    adam_step,
    fit,
    gcn_backward,
    gcn_forward,
    init_backbone,
    masked_softmax_cross_entropy,
    sample_dropout_mask,
    train_base,
)
from acgl.graph import build_session_plan, normalize_adjacency, session_subgraph
from acgl.synthetic import generate_synthetic

import conftest
from conftest import FIXTURE_EXPERIMENT, count_splits, make_graph, one_call, random_graph


def random_instance(seed, n=6, d=4, h=3, c=3):
    """Random graph + params + labels/mask for gradient and oracle checks."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, num_classes=c, d=d, edge_prob=0.5)
    adj = normalize_adjacency(g)
    params = init_backbone(d, h, c, rng)
    labels = rng.integers(c, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=max(1, n // 2), replace=False)] = True
    return g, adj, params, labels, mask


def loss_at(adj, X, params, labels, mask, dropout_mask):
    """Forward-only loss used by the finite-difference oracle."""
    z0 = adj @ (X @ params.W0)
    hidden = np.maximum(z0, 0.0)
    if dropout_mask is not None:
        hidden = hidden * dropout_mask
    logits = adj @ (hidden @ params.W1)
    loss, _ = masked_softmax_cross_entropy(logits, labels, mask)
    return loss


def fd_gradients(adj, X, params, labels, mask, dropout_mask, step=1e-5):
    """Central finite differences, entry by entry, over both matrices."""
    grads = []
    for name in ("W0", "W1"):
        base = getattr(params, name)
        grad = np.zeros_like(base)
        for idx in np.ndindex(*base.shape):
            for sign in (+1, -1):
                bumped = base.copy()
                bumped[idx] += sign * step
                p = BackboneParams(
                    W0=bumped if name == "W0" else params.W0,
                    W1=bumped if name == "W1" else params.W1,
                )
                grad[idx] += sign * loss_at(adj, X, p, labels, mask, dropout_mask)
        grads.append(grad / (2 * step))
    return tuple(grads)


class TestForward:
    def test_identity_weights_pass_relu_through(self):
        g = make_graph(3, [], [0, 1, 2], 3, d=3)
        X = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [2.0, 2.0, 2.0]])
        adj = normalize_adjacency(g)  # no edges: identity
        params = BackboneParams(W0=np.eye(3), W1=np.eye(3))
        hidden, logits = gcn_forward(adj, X, params)
        np.testing.assert_allclose(hidden, np.maximum(X, 0.0))
        np.testing.assert_allclose(logits, np.maximum(X, 0.0))

    def test_dropout_mask_scales_hidden_before_second_layer(self):
        _, adj, params, _, _ = random_instance(0)
        X = np.random.default_rng(1).normal(size=(6, 4))
        plain, _ = gcn_forward(adj, X, params)
        drop = sample_dropout_mask(np.random.default_rng(2), plain.shape, 0.5)
        hidden, logits = gcn_forward(adj, X, params, drop)
        np.testing.assert_array_equal(hidden, plain * drop)
        np.testing.assert_array_equal(logits, adj @ (hidden @ params.W1))

    def test_zero_dropout_training_equals_inference(self):
        _, adj, params, _, _ = random_instance(0)
        X = np.random.default_rng(1).normal(size=(6, 4))
        h_eval, l_eval = gcn_forward(adj, X, params)
        mask = sample_dropout_mask(np.random.default_rng(2), h_eval.shape, 0.0)
        h_train, l_train = gcn_forward(adj, X, params, mask)
        np.testing.assert_array_equal(h_train, h_eval)
        np.testing.assert_array_equal(l_train, l_eval)

    def test_matches_dense_step_by_step_oracle(self):
        g, adj, params, _, _ = random_instance(3)
        X = g.features
        a = adj.toarray()
        hidden_ref = np.maximum(a @ X @ params.W0, 0.0)
        logits_ref = a @ hidden_ref @ params.W1
        hidden, logits = gcn_forward(adj, X, params)
        np.testing.assert_allclose(hidden, hidden_ref, atol=1e-12)
        np.testing.assert_allclose(logits, logits_ref, atol=1e-12)

    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(5)
        mask = sample_dropout_mask(rng, (100, 50), 0.5)
        assert set(np.unique(mask)) == {0.0, 2.0}

    def test_shape_mismatch_rejected(self):
        _, adj, params, _, _ = random_instance(4)
        with pytest.raises(ValueError, match="feature dim"):
            gcn_forward(adj, np.zeros((6, 99)), params)


class TestCrossEntropy:
    def test_uniform_logits_give_log2(self):
        logits = np.array([[0.0, 0.0]])
        loss, probs = masked_softmax_cross_entropy(logits, np.array([0]), np.array([True]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_huge_logits_do_not_overflow(self):
        logits = np.array([[1000.0, 0.0]])
        with np.errstate(over="raise"):
            loss, probs = masked_softmax_cross_entropy(logits, np.array([0]), np.array([True]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(probs).all()

    def test_matches_reference_evaluation(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(3, size=5)
        mask = np.array([True, False, True, True, False])
        loss, probs = masked_softmax_cross_entropy(logits, labels, mask)
        # Row-by-row reference with plain 64-bit reductions, no shortcut.
        total = 0.0
        for i in range(5):
            row = [math.exp(v) for v in logits[i]]
            z = sum(row)
            for j in range(3):
                assert probs[i, j] == pytest.approx(row[j] / z, rel=1e-12)
            if mask[i]:
                total -= math.log(row[labels[i]] / z)
        assert loss == pytest.approx(total / mask.sum(), rel=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(20, 7)) * 30
        _, probs = masked_softmax_cross_entropy(
            logits, np.zeros(20, dtype=np.int64), np.ones(20, dtype=bool)
        )
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            masked_softmax_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int),
                                         np.zeros(2, dtype=bool))


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        g, adj, params, labels, mask = random_instance(seed)
        g0, g1 = gcn_backward(adj, g.features, params, labels, mask)
        f0, f1 = fd_gradients(adj, g.features, params, labels, mask, None)
        np.testing.assert_allclose(g0, f0, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(g1, f1, rtol=1e-4, atol=1e-7)

    def test_matches_finite_differences_with_dropout(self):
        g, adj, params, labels, mask = random_instance(7)
        drop = sample_dropout_mask(np.random.default_rng(11), (6, 3), 0.4)
        g0, g1 = gcn_backward(adj, g.features, params, labels, mask, drop)
        f0, f1 = fd_gradients(adj, g.features, params, labels, mask, drop)
        np.testing.assert_allclose(g0, f0, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(g1, f1, rtol=1e-4, atol=1e-7)

    def test_gradient_vanishes_at_confident_optimum(self):
        # One isolated node per class, huge correct logits: probs one-hot.
        g = make_graph(2, [], [0, 1], 2, d=2)
        X = np.eye(2)
        adj = normalize_adjacency(g)
        params = BackboneParams(W0=np.eye(2) * 50.0, W1=np.eye(2) * 50.0)
        g0, g1 = gcn_backward(adj, X, params, np.array([0, 1]),
                              np.array([True, True]))
        assert np.linalg.norm(g0) < 1e-9
        assert np.linalg.norm(g1) < 1e-9

    def test_mean_vs_sum_scaling(self):
        # Doubling the mask size halves the per-node weight: mean semantics.
        g, adj, params, labels, _ = random_instance(13)
        one = np.zeros(6, dtype=bool)
        one[2] = True
        g0_one, _ = gcn_backward(adj, g.features, params, labels, one)
        all_mask = np.ones(6, dtype=bool)
        g0_all, _ = gcn_backward(adj, g.features, params, labels, all_mask)
        per_node = []
        for i in range(6):
            m = np.zeros(6, dtype=bool)
            m[i] = True
            per_node.append(gcn_backward(adj, g.features, params, labels, m)[0])
        np.testing.assert_allclose(g0_all, sum(per_node) / 6.0, atol=1e-12)
        np.testing.assert_allclose(g0_one, per_node[2], atol=1e-12)


def textbook_adam(W, m, v, grad, t, lr, decay):
    """One bias-corrected Adam step written out, returning new (W, m, v)."""
    grad = grad + decay * W if decay else grad
    m = 0.9 * m + (1.0 - 0.9) * grad
    v = 0.999 * v + (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return W - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


class TestAdam:
    def make(self, shape=(3, 2), seed=0):
        rng = np.random.default_rng(seed)
        params = BackboneParams(W0=rng.normal(size=shape), W1=rng.normal(size=(shape[1], 2)))
        # Adam's four moments before step 1: W0's first and second, then W1's.
        return params, tuple(np.zeros_like(w) for w in (params.W0, params.W0, params.W1, params.W1))

    def test_zero_gradient_leaves_params_unchanged(self):
        params, moments = self.make()
        before = (params.W0.copy(), params.W1.copy())
        adam_step(params, (np.zeros_like(params.W0), np.zeros_like(params.W1)), moments, 1,
                  BackboneConfig(lr=0.1, weight_decay=0.0))
        np.testing.assert_array_equal(params.W0, before[0])
        np.testing.assert_array_equal(params.W1, before[1])
        assert not any(m.any() for m in moments)

    def test_first_step_matches_hand_formula(self):
        params, moments = self.make()
        W0, W1 = params.W0.copy(), params.W1.copy()
        rng = np.random.default_rng(1)
        g0 = rng.normal(size=params.W0.shape)
        g1 = rng.normal(size=params.W1.shape)
        adam_step(params, (g0, g1), moments, 1, BackboneConfig(lr=0.05, weight_decay=0.0))
        # After bias correction from zero moments: step = -lr * g / (|g| + eps).
        np.testing.assert_allclose(params.W0, W0 - 0.05 * g0 / (np.abs(g0) + 1e-8), atol=1e-12)
        np.testing.assert_allclose(params.W1, W1 - 0.05 * g1 / (np.abs(g1) + 1e-8), atol=1e-12)

    def test_moments_do_not_cross_contaminate(self):
        params, moments = self.make()
        W0, W1 = params.W0.copy(), params.W1.copy()
        adam_step(params, (np.ones_like(params.W0), np.zeros_like(params.W1)), moments, 1,
                  BackboneConfig(lr=0.1, weight_decay=0.0))
        assert not np.array_equal(params.W0, W0)
        np.testing.assert_array_equal(params.W1, W1)
        assert moments[0].any() and moments[1].any()
        assert not moments[2].any() and not moments[3].any()

    def test_weight_decay_pulls_toward_zero(self):
        params, moments = self.make()
        W0 = params.W0.copy()
        adam_step(params, (np.zeros_like(params.W0), np.zeros_like(params.W1)), moments, 1,
                  BackboneConfig(lr=0.1, weight_decay=0.5))
        assert (np.abs(params.W0) <= np.abs(W0) + 1e-12).all()
        assert not np.array_equal(params.W0, W0)

    @pytest.mark.parametrize("decay", [0.0, 5e-4])
    def test_five_steps_bit_equal_to_textbook_formula(self, decay):
        """Parameters and moments equal the textbook expression bit for bit."""
        params, moments = self.make(shape=(40, 16))
        want = [(params.W0.copy(), np.zeros_like(params.W0), np.zeros_like(params.W0)),
                (params.W1.copy(), np.zeros_like(params.W1), np.zeros_like(params.W1))]
        config = BackboneConfig(lr=0.01, weight_decay=decay)
        rng = np.random.default_rng(2)
        for t in range(1, 6):
            grads = (rng.normal(size=params.W0.shape), rng.normal(size=params.W1.shape))
            want = [textbook_adam(W, m, v, g, t, 0.01, decay) for (W, m, v), g in zip(want, grads)]
            adam_step(params, grads, moments, t, config)
            got = [(params.W0, moments[0], moments[1]), (params.W1, moments[2], moments[3])]
            assert [[a.tobytes() for a in w] for w in got] == [[a.tobytes() for a in w]
                                                               for w in want]

    @pytest.mark.parametrize("decay", [0.0, 5e-4])
    def test_writes_params_and_moments_never_grads(self, decay):
        params, moments = self.make()
        arrays = (params.W0, params.W1, *moments)
        before = [a.copy() for a in arrays]
        rng = np.random.default_rng(3)
        grads = (rng.normal(size=params.W0.shape), rng.normal(size=params.W1.shape))
        grads_before = [g.tobytes() for g in grads]
        adam_step(params, grads, moments, 1, BackboneConfig(lr=0.1, weight_decay=decay))
        assert all(a is b for a, b in zip((params.W0, params.W1, *moments), arrays))
        assert all(not np.array_equal(a, b) for a, b in zip(arrays, before))
        assert [g.tobytes() for g in grads] == grads_before

    def test_gradient_shapes_must_mirror_parameters(self):
        params, moments = self.make()
        before = [a.tobytes() for a in (params.W0, params.W1, *moments)]
        with pytest.raises(ValueError, match="^gradient shapes must mirror parameter shapes$"):
            adam_step(params, (np.zeros_like(params.W1), np.zeros_like(params.W0)), moments, 1,
                      BackboneConfig())
        assert [a.tobytes() for a in (params.W0, params.W1, *moments)] == before


@pytest.mark.parametrize("kwargs, match", [
    (dict(hidden=0), "hidden"),
    (dict(epochs=-1), "epochs"),
    (dict(dropout=1.0), "dropout"),
    (dict(lr=0.0), "lr"),
    (dict(weight_decay=-1.0), "weight_decay"),
    (dict(weight_decay=float("nan")), "weight_decay"),
])
def test_backbone_config_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        BackboneConfig(**kwargs)


@pytest.mark.parametrize("W0, W1, match", [
    (np.ones(3), np.ones((3, 2)), r"^W0 and W1 must be matrices$"),
    (np.ones((4, 3)), np.ones((2, 2)),
     r"^hidden dims disagree: W0 is \(4, 3\), W1 is \(2, 2\)$"),
    (np.ones((4, 3)), np.full((3, 2), np.nan), r"^parameters must be finite$"),
], ids=["not_matrix", "hidden_mismatch", "non_finite"])
def test_backbone_params_reject_bad_weights(W0, W1, match):
    with pytest.raises(ValueError, match=match):
        BackboneParams(W0=W0, W1=W1)


def test_backbone_params_convert_before_checking():
    with pytest.raises(ValueError, match="^W0 and W1 must be matrices$"):
        BackboneParams(W0=[1.0], W1=[[1.0]])
    params = BackboneParams(W0=[[1.0]], W1=[[2]])
    for w in (params.W0, params.W1):
        assert w.dtype == np.float64 and w.shape == (1, 1)
        assert w.flags.writeable  # fit's Adam step writes its copy in place


@pytest.mark.parametrize("rate", [-0.1, 1.0])
def test_dropout_rate_outside_unit_interval_rejected(rate):
    with pytest.raises(ValueError, match=r"^dropout rate must lie in \[0, 1\)$"):
        sample_dropout_mask(np.random.default_rng(0), (2, 3), rate)


@pytest.fixture(scope="module")
def fixture_graph():
    return generate_synthetic(4, 50, 16, 0.9, seed=1)


class TestTrainBase:
    def test_zero_epochs_returns_seeded_init(self, fixture_graph):
        plan = build_session_plan(fixture_graph, 2, 1)
        cfg = BackboneConfig(hidden=8, epochs=0, lr=0.01, dropout=0.5)
        params = train_base(fixture_graph, plan, cfg, seed=3)
        rng = np.random.default_rng(3)
        expected = init_backbone(16, 8, 2, rng)
        np.testing.assert_array_equal(params.W0, expected.W0)
        np.testing.assert_array_equal(params.W1, expected.W1)

    def test_fixture_baseline_train_accuracy(self, fixture_graph):
        plan = build_session_plan(fixture_graph, 2, 1)
        cfg = BackboneConfig(hidden=32, epochs=50, lr=0.01, dropout=0.5)
        params = train_base(fixture_graph, plan, cfg, seed=1)
        base = session_subgraph(fixture_graph, plan.base_classes)
        adj = normalize_adjacency(base)
        _, logits = gcn_forward(adj, base.features, params)
        pos = {c: i for i, c in enumerate(plan.base_classes)}
        y = np.array([pos[int(c)] for c in base.labels])
        acc = (logits.argmax(axis=1)[base.train_mask] == y[base.train_mask]).mean()
        assert acc > 0.8

    def test_training_reduces_loss(self, fixture_graph):
        plan = build_session_plan(fixture_graph, 2, 1)
        base = session_subgraph(fixture_graph, plan.base_classes)
        adj = normalize_adjacency(base)
        pos = {c: i for i, c in enumerate(plan.base_classes)}
        y = np.array([pos[int(c)] for c in base.labels])

        def loss_of(cfg):
            params = train_base(fixture_graph, plan, cfg, seed=1)
            _, logits = gcn_forward(adj, base.features, params)
            loss, _ = masked_softmax_cross_entropy(logits, y, base.train_mask)
            return loss

        initial = loss_of(BackboneConfig(hidden=32, epochs=0, lr=0.01, dropout=0.5))
        final = loss_of(BackboneConfig(hidden=32, epochs=50, lr=0.01, dropout=0.5))
        assert final < initial

    def test_bit_identical_across_runs(self, fixture_graph):
        plan = build_session_plan(fixture_graph, 2, 1)
        cfg = BackboneConfig(hidden=16, epochs=10, lr=0.01, dropout=0.5)
        a = train_base(fixture_graph, plan, cfg, seed=9)
        b = train_base(fixture_graph, plan, cfg, seed=9)
        np.testing.assert_array_equal(a.W0, b.W0)
        np.testing.assert_array_equal(a.W1, b.W1)

    @pytest.mark.parametrize("hidden", [16, 64])
    def test_matches_reference_loop_bit_for_bit(self, fixture_graph, hidden):
        """Glorot init, then per epoch a dropout draw, gcn_backward and textbook Adam."""
        plan = build_session_plan(fixture_graph, 2, 1)
        cfg = BackboneConfig(hidden=hidden, epochs=6, lr=0.01, dropout=0.5, weight_decay=5e-4)
        got = train_base(fixture_graph, plan, cfg, seed=4)
        base = session_subgraph(fixture_graph, plan.base_classes)
        adj = normalize_adjacency(base)
        rng = np.random.default_rng(4)
        params = init_backbone(16, hidden, 2, rng)
        state = [(params.W0, 0.0, 0.0), (params.W1, 0.0, 0.0)]
        for t in range(1, 7):
            drop = (rng.random((base.num_nodes, hidden)) >= 0.5) / (1.0 - 0.5)
            grads = gcn_backward(adj, base.features, BackboneParams(state[0][0], state[1][0]),
                                 base.labels, base.train_mask, drop)
            state = [textbook_adam(*s, g, t, 0.01, 5e-4) for s, g in zip(state, grads)]
        assert (got.W0.tobytes(), got.W1.tobytes()) == (state[0][0].tobytes(),
                                                        state[1][0].tobytes())

    def test_empty_train_split_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)], [0, 0, 1, 1], 2, split=[2] * 4)
        plan = build_session_plan(g, 1, 1)
        with pytest.raises(ValueError, match="empty train split"):
            train_base(g, plan, BackboneConfig(hidden=4, epochs=1), seed=0)


class TestFit:
    def instance(self, fixture_graph, epochs=5):
        sub = session_subgraph(fixture_graph, (0, 1))
        params = init_backbone(16, 8, 2, np.random.default_rng(0))
        cfg = BackboneConfig(hidden=8, epochs=epochs, lr=0.01)
        return sub, normalize_adjacency(sub), params, cfg

    @pytest.mark.parametrize("epochs", [0, 5])
    def test_leaves_callers_params_unwritten(self, fixture_graph, epochs):
        sub, adj, params, cfg = self.instance(fixture_graph, epochs)
        before = (params.W0.tobytes(), params.W1.tobytes())
        trained = fit(params, adj, sub.features, sub.labels, sub.train_mask, cfg,
                      np.random.default_rng(1))
        assert (params.W0.tobytes(), params.W1.tobytes()) == before
        assert not np.shares_memory(trained.W0, params.W0)
        assert not np.shares_memory(trained.W1, params.W1)
        assert (trained.W0.tobytes() == before[0]) == (epochs == 0)

    def test_finetune_leaves_the_base_backbone_unwritten(self, monkeypatch):
        # finetune_matrix hands fit train_base's W0 itself, not a copy.
        kept = []

        def recording_train_base(*args):
            params = train_base(*args)
            kept.append((params, params.W0.tobytes(), params.W1.tobytes()))
            return params

        monkeypatch.setattr(conftest, "train_base", recording_train_base)
        conftest.finetune_matrix(FIXTURE_EXPERIMENT)
        [(params, W0, W1)] = kept
        assert (params.W0.tobytes(), params.W1.tobytes()) == (W0, W1)


@st.composite
def product_shapes(draw):
    """(rows, inner, cols, transposed, seed) with inner sized so about half the products split."""
    rows = draw(st.integers(2, 600))
    cols = draw(st.integers(1, 80))
    half_madds = draw(st.floats(2e5, 5e6))
    inner = max(1, min(4000, round(half_madds / (max(rows // 2, 1) * cols))))
    return rows, inner, cols, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def operands(rows, inner, cols, transposed, seed):
    """A (rows, inner) and B (inner, cols); a transposed A is a Fortran view, as adj_X.T is."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(inner, rows)).T if transposed else rng.normal(size=(rows, inner))
    return A, rng.normal(size=(inner, cols))


class TestSplitMatmul:
    # Every product splits that the bit-identity rules let split (a 48-row
    # aligned split, halves above OpenBLAS's small-matrix size).
    @settings(max_examples=60, deadline=None)
    @given(shape=product_shapes())
    @example(shape=(2, 3000, 80, False, 0))          # rows = 2: no aligned split exists
    @example(shape=(301, 700, 37, False, 1))         # odd rows, split at 144
    @example(shape=(1433, 1548, 13, True, 2))        # adj_X.T @ d_z0 at Cora's width
    @example(shape=(777, 4000, 1, True, 3))          # one column: BLAS takes gemv
    def test_split_product_is_bit_identical(self, shape):
        A, B = operands(*shape)
        assert threads.split_matmul(A, B).tobytes() == (A @ B).tobytes()

    def test_examples_take_the_split(self, monkeypatch):
        calls = count_splits(monkeypatch)
        for shape in [(301, 700, 37, False, 1), (1433, 1548, 13, True, 2),
                      (777, 4000, 1, True, 3), (2, 3000, 80, False, 0)]:
            threads.split_matmul(*operands(*shape))
        assert len(calls) == 3

    def test_small_products_stay_on_the_calling_thread(self, monkeypatch):
        calls = count_splits(monkeypatch)
        # 100 x 64 x 128 is the stream40 base product: 0.8M multiply-adds.
        threads.split_matmul(*operands(100, 64, 128, False, 0))
        assert calls == []

    @pytest.mark.parametrize("row", [0, -1], ids=["caller_rows", "helper_rows"])
    def test_overflow_in_either_half_raises(self, row):
        A, B = np.ones((400, 128)), np.ones((128, 128))
        A[row] = 1e308                              # finite, but its row sums overflow
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                threads.split_matmul(A, B)
        with np.errstate(over="ignore"):
            out = threads.split_matmul(A, B)
        assert np.isinf(out[row]).all() and np.isfinite(np.delete(out, row % 400, axis=0)).all()

    def test_product_split_at_a_48_row_block(self, monkeypatch):
        calls = count_splits(monkeypatch)
        A, B = np.ones((1548, 1433)), np.ones((1433, 256))
        seen = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, **kw: seen.append(a.shape[0]) or
                            matmul(a, b, **kw))
        threads.split_matmul(A, B)
        assert len(calls) == 1 and sorted(seen) == [768, 780]


def cora_shaped_base():
    """A 1548 x 1433 base session (four classes of 387 nodes), hidden 256, as cora_csv trains."""
    graph = generate_synthetic(7, 387, 1433, 0.8, seed=5, class_sep=0.05)
    return graph, build_session_plan(graph, 4, 1)


@pytest.mark.parametrize("split", [True, False], ids=["split", "one_call"])
def test_cora_shaped_training_is_bit_identical_split_or_not(monkeypatch, split):
    graph, plan = cora_shaped_base()
    cfg = BackboneConfig(hidden=256, epochs=2)
    reference = train_base(graph, plan, cfg, seed=6)
    if not split:
        one_call(monkeypatch)
    calls = count_splits(monkeypatch)
    params = train_base(graph, plan, cfg, seed=6)
    assert (params.W0.tobytes(), params.W1.tobytes()) == (reference.W0.tobytes(),
                                                          reference.W1.tobytes())
    # Two split products per epoch: X @ W0 and adj_X.T @ d_z0.
    assert len(calls) == (4 if split else 0)


# The fixture's products and its d = 64 Grams have parts below the
# small-matrix floor, so nothing is cut or handed off; cut without that
# floor, this run's bits did change. The widened fixture's base forward and
# backward, its session extractions and its Grams hand off.
WIDE_FIXTURE = dataclasses.replace(
    FIXTURE_EXPERIMENT,
    synthetic=dataclasses.replace(FIXTURE_EXPERIMENT.synthetic, nodes_per_class=200,
                                  features=128),
    backbone=dataclasses.replace(FIXTURE_EXPERIMENT.backbone, hidden=64, epochs=5),
    expander=dataclasses.replace(FIXTURE_EXPERIMENT.expander, dim=128),
)


@pytest.mark.parametrize("config", [FIXTURE_EXPERIMENT, WIDE_FIXTURE],
                         ids=["fixture", "wide_fixture"])
def test_run_is_bit_identical_split_or_not(monkeypatch, config):
    def outputs():
        r = harness.run_experiment(config)
        return (r.matrix.rows, r.state.weights.tobytes(), r.state.R.tobytes(),
                r.backbone.W0.tobytes(), r.backbone.W1.tobytes())

    with pytest.MonkeyPatch.context() as mp:
        one_call(mp)
        reference = outputs()
    calls = count_splits(monkeypatch)
    assert outputs() == reference
    assert bool(calls) == (config is WIDE_FIXTURE)
