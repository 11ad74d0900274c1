import dataclasses

import numpy as np
import pytest

from acgl.analytic import (
    AnalyticState,
    SessionBatch,
    align_base,
    joint_solve,
    one_hot,
    predict,
    update_R,
    update_weights,
)


def random_batch(rng, n, d, class_ids):
    X = rng.normal(size=(n, d))
    labels = rng.choice(list(class_ids), size=n)
    return SessionBatch(features=X, targets=one_hot(labels, class_ids),
                        class_ids=tuple(class_ids))


def random_stream(rng, d, num_sessions, classes_per_session=2, n_lo=3, n_hi=20):
    """Disjoint-class session stream of SessionBatch values."""
    batches = []
    next_class = 0
    for _ in range(num_sessions):
        ids = tuple(range(next_class, next_class + classes_per_session))
        next_class += classes_per_session
        n = int(rng.integers(n_lo, n_hi + 1))
        # Every class needs at least one row so no target column is empty.
        n = max(n, classes_per_session)
        X = rng.normal(size=(n, d))
        labels = np.concatenate([np.asarray(ids), rng.choice(ids, size=n - len(ids))])
        batches.append(SessionBatch(features=X, targets=one_hot(labels, ids),
                                    class_ids=ids))
    return batches


def relu_stream(seed, h=32, d=256, num_sessions=30, rows=40, classes_per_session=2):
    """Expanded-feature-like stream: relu of an h-dim input lifted to d > h.

    Each session's Gram has rank at most ``rows`` < d, and all sessions share
    one h-dim pre-activation subspace, so the accumulated Gram stays badly
    conditioned and gamma sets its smallest eigenvalues.
    """
    rng = np.random.default_rng(seed)
    lift = rng.uniform(-1 / np.sqrt(h), 1 / np.sqrt(h), size=(h, d))
    batches = []
    for s in range(num_sessions):
        ids = tuple(range(s * classes_per_session, (s + 1) * classes_per_session))
        labels = np.concatenate([np.asarray(ids), rng.choice(ids, size=rows - len(ids))])
        X = np.maximum(rng.normal(size=(rows, h)) @ lift, 0.0)
        batches.append(SessionBatch(features=X, targets=one_hot(labels, ids), class_ids=ids))
    return batches


def run_recursion(batches, gamma):
    state = align_base(batches[0].features, batches[0].targets, gamma,
                       class_ids=batches[0].class_ids)
    for batch in batches[1:]:
        state = update_weights(state, batch)
    return state


def rel_fro(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestAlignBase:
    def test_identity_case(self):
        state = align_base(np.eye(2), np.eye(2), gamma=1.0)
        np.testing.assert_allclose(state.weights, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(state.inv_gram, 0.5 * np.eye(2), atol=1e-12)

    def test_heavy_shrinkage_limit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        Y = one_hot(rng.integers(2, size=10), (0, 1))
        state = align_base(X, Y, gamma=1e12)
        assert np.linalg.norm(state.weights) < 1e-9

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 8))
        Y = one_hot(rng.integers(3, size=20), (0, 1, 2))
        state = align_base(X, Y, gamma=0.01)
        expected = np.linalg.inv(X.T @ X + 0.01 * np.eye(8)) @ (X.T @ Y)
        assert rel_fro(state.weights, expected) < 1e-9

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 12))
        Y = one_hot(rng.integers(4, size=30), range(4))
        gamma = 0.5
        state = align_base(X, Y, gamma)
        lhs = (X.T @ X + gamma * np.eye(12)) @ state.weights
        rhs = X.T @ Y
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            align_base(np.eye(2), np.eye(2), gamma=0.0)

    def test_r_is_inverse_of_gram(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 6))
        Y = one_hot(rng.integers(2, size=15), (0, 1))
        state = align_base(X, Y, gamma=0.1)
        gram = X.T @ X + 0.1 * np.eye(6)
        np.testing.assert_allclose(state.inv_gram @ gram, np.eye(6), atol=1e-8)


class TestUpdateR:
    def test_scalar_case(self):
        out = update_R(np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(out, [[0.5]], atol=1e-12)

    def test_zero_rows_leave_r_unchanged(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        R = np.linalg.inv(A @ A.T + np.eye(6))
        out = update_R(R, np.zeros((3, 6)))
        np.testing.assert_allclose(out, R, atol=1e-12)

    def test_empty_batch_leaves_r_unchanged(self):
        R = np.linalg.inv(np.eye(4) * 2.0)
        out = update_R(R, np.empty((0, 4)))
        np.testing.assert_allclose(out, R, atol=1e-15)

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(16, 16))
        R_prev = np.linalg.inv(A @ A.T + np.eye(16))
        Xn = rng.normal(size=(5, 16))
        expected = np.linalg.inv(np.linalg.inv(R_prev) + Xn.T @ Xn)
        assert rel_fro(update_R(R_prev, Xn), expected) < 1e-9

    @pytest.mark.parametrize("n", [3, 16, 40])
    def test_woodbury_and_direct_paths_agree(self, n):
        # n < d exercises Woodbury, n >= d the re-inversion path.
        rng = np.random.default_rng(n)
        d = 16
        A = rng.normal(size=(d, d))
        R_prev = np.linalg.inv(A @ A.T + 0.5 * np.eye(d))
        Xn = rng.normal(size=(n, d))
        expected = np.linalg.inv(np.linalg.inv(R_prev) + Xn.T @ Xn)
        assert rel_fro(update_R(R_prev, Xn), expected) < 1e-9

    def test_output_symmetric(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(8, 8))
        R_prev = np.linalg.inv(A @ A.T + np.eye(8))
        out = update_R(R_prev, rng.normal(size=(4, 8)))
        np.testing.assert_allclose(out, out.T, atol=1e-12)

    def test_singular_input_rejected(self):
        # A negative-definite "R" makes the inner matrix indefinite.
        R_bad = -np.eye(3) * 1e12
        with pytest.raises(ValueError, match="singular|indefinite"):
            update_R(R_bad, np.ones((1, 3)))


class TestUpdateWeights:
    def test_zero_features_change_nothing_and_append_zeros(self):
        rng = np.random.default_rng(7)
        base = random_batch(rng, 10, 6, (0, 1))
        state = align_base(base.features, base.targets, 1.0, class_ids=(0, 1))
        batch = SessionBatch(features=np.zeros((4, 6)),
                             targets=one_hot([2, 2, 3, 3], (2, 3)),
                             class_ids=(2, 3))
        new = update_weights(state, batch)
        np.testing.assert_allclose(new.weights[:, :2], state.weights, atol=1e-12)
        np.testing.assert_array_equal(new.weights[:, 2:], np.zeros((6, 2)))
        assert new.seen_classes == (0, 1, 2, 3)

    def test_one_session_matches_joint(self):
        rng = np.random.default_rng(8)
        batches = random_stream(rng, d=12, num_sessions=2)
        state = run_recursion(batches, gamma=0.1)
        W_joint = joint_solve(batches, gamma=0.1)
        assert rel_fro(state.weights, W_joint) < 1e-8

    def test_five_sessions_match_joint(self):
        rng = np.random.default_rng(9)
        batches = random_stream(rng, d=16, num_sessions=5)
        state = run_recursion(batches, gamma=0.05)
        W_joint = joint_solve(batches, gamma=0.05)
        assert rel_fro(state.weights, W_joint) < 1e-8

    def test_class_revisit_rejected(self):
        rng = np.random.default_rng(10)
        base = random_batch(rng, 8, 4, (0, 1))
        state = align_base(base.features, base.targets, 1.0, class_ids=(0, 1))
        again = random_batch(rng, 5, 4, (1, 2))
        with pytest.raises(ValueError, match="revisited"):
            update_weights(state, again)

    def test_r_consistency_against_accumulator(self):
        rng = np.random.default_rng(11)
        batches = random_stream(rng, d=10, num_sessions=6)
        gamma = 0.3
        state = align_base(batches[0].features, batches[0].targets, gamma,
                           class_ids=batches[0].class_ids)
        gram = batches[0].features.T @ batches[0].features + gamma * np.eye(10)
        np.testing.assert_allclose(state.inv_gram @ gram, np.eye(10), atol=1e-8)
        for batch in batches[1:]:
            state = update_weights(state, batch)
            gram += batch.features.T @ batch.features
            np.testing.assert_allclose(state.inv_gram @ gram, np.eye(10), atol=1e-8)

    def test_session_order_does_not_matter(self):
        rng = np.random.default_rng(12)
        batches = random_stream(rng, d=8, num_sessions=4)
        state_a = run_recursion(batches, gamma=0.2)
        order = [2, 0, 3, 1]
        state_b = run_recursion([batches[i] for i in order], gamma=0.2)
        # Map columns back by class id and compare.
        cols_a = {c: state_a.weights[:, j] for j, c in enumerate(state_a.seen_classes)}
        cols_b = {c: state_b.weights[:, j] for j, c in enumerate(state_b.seen_classes)}
        assert cols_a.keys() == cols_b.keys()
        for c in cols_a:
            assert np.linalg.norm(cols_a[c] - cols_b[c]) <= 1e-8 * max(
                1.0, np.linalg.norm(cols_a[c])
            )

    # The README's exactness claim covers gamma >= 1e-4. At gamma = 1e-6 this
    # stream drifts to about 1.3e-8, past the bound, so that value is not
    # tested here.
    @pytest.mark.parametrize("gamma", [1.0, 1e-2, 1e-4])
    def test_long_rank_deficient_relu_stream_matches_joint(self, gamma):
        for seed in range(5):
            batches = relu_stream(seed)
            state = run_recursion(batches, gamma)
            assert rel_fro(state.weights, joint_solve(batches, gamma)) < 1e-8


class TestJointSolve:
    def test_single_batch_equals_align_base(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, 12, 5, (0, 1, 2))
        state = align_base(batch.features, batch.targets, 0.7, class_ids=batch.class_ids)
        W = joint_solve([batch], gamma=0.7)
        np.testing.assert_allclose(W, state.weights, atol=1e-10)

    def test_duplicated_batch_doubles_accumulators(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(9, 4))
        Y = one_hot(rng.integers(2, size=9), (0, 1))
        W_dup = joint_solve([(X, Y), (X, Y)], gamma=0.5)
        doubled = np.linalg.inv(2 * X.T @ X + 0.5 * np.eye(4)) @ (X.T @ Y)
        np.testing.assert_allclose(W_dup[:, :2], doubled, atol=1e-10)
        np.testing.assert_allclose(W_dup[:, 2:], doubled, atol=1e-10)
        W_single = joint_solve([(X, Y)], gamma=0.5)
        assert rel_fro(W_dup[:, :2], W_single) > 1e-3  # genuinely different

    def test_orthogonal_feature_blocks_decouple(self):
        rng = np.random.default_rng(15)
        d = 8
        X1 = np.zeros((10, d))
        X1[:, :4] = rng.normal(size=(10, 4))
        X2 = np.zeros((12, d))
        X2[:, 4:] = rng.normal(size=(12, 4))
        Y1 = one_hot(rng.integers(2, size=10), (0, 1))
        Y2 = one_hot(rng.integers(2, size=12) + 2, (2, 3))
        gamma = 0.4
        W = joint_solve([(X1, Y1), (X2, Y2)], gamma)
        W1_alone = np.linalg.inv(X1[:, :4].T @ X1[:, :4] + gamma * np.eye(4)) @ (
            X1[:, :4].T @ Y1
        )
        W2_alone = np.linalg.inv(X2[:, 4:].T @ X2[:, 4:] + gamma * np.eye(4)) @ (
            X2[:, 4:].T @ Y2
        )
        np.testing.assert_allclose(W[:4, :2], W1_alone, atol=1e-9)
        np.testing.assert_allclose(W[4:, 2:], W2_alone, atol=1e-9)
        np.testing.assert_allclose(W[4:, :2], 0.0, atol=1e-9)
        np.testing.assert_allclose(W[:4, 2:], 0.0, atol=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            joint_solve([], gamma=1.0)


class TestPredict:
    def make_state(self, weights, classes):
        d = weights.shape[0]
        return AnalyticState(weights=weights, inv_gram=np.eye(d), gamma=1.0,
                             seen_classes=classes)

    def test_one_hot_weights_recover_class(self):
        W = np.eye(3) * 2.0
        state = self.make_state(W, (4, 7, 9))
        X = np.eye(3)
        np.testing.assert_array_equal(predict(X, state), [4, 7, 9])

    def test_zero_row_breaks_tie_to_lowest_class_id(self):
        W = np.ones((3, 3))
        state = self.make_state(W, (9, 4, 7))  # first-seen order is not sorted
        preds = predict(np.zeros((2, 3)), state)
        np.testing.assert_array_equal(preds, [4, 4])

    def test_nan_feature_row_rejected(self):
        state = self.make_state(np.eye(3), (4, 7, 9))
        X = np.eye(3)
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            predict(X, state)

    def test_non_finite_weights_rejected(self):
        W = np.eye(3)
        W[2, 2] = np.inf
        state = self.make_state(W, (4, 7, 9))
        with pytest.raises(ValueError, match="non-finite"):
            predict(np.ones((1, 3)), state)

    def test_predictions_identical_for_recursive_and_joint_weights(self):
        rng = np.random.default_rng(16)
        batches = random_stream(rng, d=10, num_sessions=4)
        state = run_recursion(batches, gamma=0.2)
        W_joint = joint_solve(batches, gamma=0.2)
        joint_state = self.make_state(W_joint, state.seen_classes)
        X = rng.normal(size=(50, 10))
        np.testing.assert_array_equal(predict(X, state), predict(X, joint_state))


class TestStateStructure:
    def test_memory_footprint_is_two_matrices(self):
        rng = np.random.default_rng(17)
        batches = random_stream(rng, d=6, num_sessions=3)
        state = run_recursion(batches, gamma=1.0)
        array_fields = {
            f.name: getattr(state, f.name)
            for f in dataclasses.fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)
        }
        assert set(array_fields) == {"weights", "inv_gram"}
        d = state.feature_dim
        assert array_fields["inv_gram"].shape == (d, d)
        assert array_fields["weights"].shape == (d, len(state.seen_classes))

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            AnalyticState(weights=np.ones((2, 1)), inv_gram=np.eye(2), gamma=0.0,
                          seen_classes=(0,))
        with pytest.raises(ValueError, match="R shape"):
            AnalyticState(weights=np.ones((2, 1)), inv_gram=np.eye(3), gamma=1.0,
                          seen_classes=(0,))
        with pytest.raises(ValueError, match="one weight column"):
            AnalyticState(weights=np.ones((2, 2)), inv_gram=np.eye(2), gamma=1.0,
                          seen_classes=(0,))

    def test_batch_targets_must_be_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            SessionBatch(features=np.ones((2, 3)),
                         targets=np.array([[1.0, 1.0], [0.0, 1.0]]),
                         class_ids=(0, 1))
