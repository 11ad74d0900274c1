import re
import weakref

import numpy as np
import pytest

from acgl.analytic import AnalyticState, joint_solve, align_base, predict
from acgl.backbone import BackboneConfig
from acgl.datasets import save_dataset
from acgl.expander import init_expander
from acgl.graph import FieldError, session_subgraph
from acgl.harness import (
    ExpanderConfig,
    ExperimentConfig,
    PerformanceMatrix,
    SyntheticSpec,
    evaluate_task,
    resolve_graph,
    run_experiment,
)

from acgl import analytic, harness
from conftest import (
    FIXTURE_EXPERIMENT,
    make_graph,
    one_hot,
    oracle_predict,
    oracle_test_rows,
    run_recording_batches,
)


def run_one_class_sessions(g, directory):
    """Save ``g`` and run a tiny stream over it, one class per session."""
    save_dataset(g, directory)
    return run_experiment(ExperimentConfig(
        dataset_path=str(directory), c0=1, k=1, gamma=1.0,
        backbone=BackboneConfig(hidden=4, epochs=2, dropout=0.0),
        expander=ExpanderConfig(dim=8),
        seed=0,
    ))


@pytest.fixture(scope="module")
def fixture_run():
    with pytest.MonkeyPatch.context() as mp:
        return run_recording_batches(mp, FIXTURE_EXPERIMENT)


@pytest.fixture(scope="module")
def fixture_result(fixture_run):
    return fixture_run[0]


class TestPerformanceMatrix:
    def test_lower_triangular_shape_enforced(self):
        with pytest.raises(ValueError, match="row 1"):
            PerformanceMatrix(rows=((0.5,), (0.5, 0.5, 0.5)))

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            PerformanceMatrix(rows=((1.5,),))

    def test_accessors(self):
        m = PerformanceMatrix(rows=((0.9,), (0.8, 0.7)))
        assert m.num_sessions == 2
        assert m.entry(1, 0) == 0.8
        assert m.final_row == (0.8, 0.7)
        with pytest.raises(IndexError):
            m.entry(0, 1)


class TestRunExperiment:
    def test_matrix_shape_and_diagonal(self, fixture_result):
        m = fixture_result.matrix
        assert m.num_sessions == 3
        for k in range(3):
            assert len(m.rows[k]) == k + 1
        # Fixture baseline recorded at first implementation: the homophilous
        # well-separated stream is learned essentially perfectly.
        assert all(m.entry(k, k) > 0.8 for k in range(3))

    def test_two_runs_bit_identical(self):
        a = run_experiment(FIXTURE_EXPERIMENT)
        b = run_experiment(FIXTURE_EXPERIMENT)
        assert a.matrix.rows == b.matrix.rows
        np.testing.assert_array_equal(a.state.weights, b.state.weights)

    def test_timings_structure(self, fixture_result):
        t = fixture_result.timings
        assert set(t) == {"load_s", "base_train_s", "align_s", "update_s", "eval_s", "total_s"}
        assert len(t["update_s"]) == 2
        assert len(t["eval_s"]) == 3
        assert t["total_s"] > 0
        assert t["load_s"] > 0

    def test_state_covers_all_classes(self, fixture_result):
        assert fixture_result.state.weights.shape == (64, 4)

    def test_final_weights_equal_joint_solve_column_by_column(self, fixture_run):
        """Column j of the final W is class id j's, and equals joint_solve's column j."""
        res, batches = fixture_run
        classes = [c for group in res.plan.groups for c in group]
        assert classes == list(range(res.state.weights.shape[1]))
        graph = resolve_graph(FIXTURE_EXPERIMENT)
        for group, (_, Y) in zip(res.plan.groups, batches):
            sub = session_subgraph(graph, group)
            np.testing.assert_array_equal(Y, one_hot(sub.labels[sub.train_mask], group))
        W_joint = joint_solve(batches, FIXTURE_EXPERIMENT.gamma)
        for j in classes:
            column, joint = res.state.weights[:, j], W_joint[:, j]
            assert np.linalg.norm(column - joint) <= 1e-10 * np.linalg.norm(joint), j

    def test_recursive_rows_equal_joint_rows(self, fixture_run):
        """Weight-level equivalence carries over to every accuracy entry."""
        res, batches = fixture_run
        for k in range(res.matrix.num_sessions):
            W = joint_solve(batches[: k + 1], FIXTURE_EXPERIMENT.gamma)
            joint_state = AnalyticState(weights=W, R=np.eye(W.shape[0]))
            for i in range(k + 1):
                acc = evaluate_task(joint_state, *res.test_rows[i])
                assert abs(acc - res.matrix.entry(k, i)) <= 1e-12

    def test_empty_train_split_aborts_naming_its_class(self, tmp_path):
        g = make_graph(6, [(0, 1), (2, 3), (4, 5)], [0, 0, 1, 1, 2, 2], 3,
                       split=[0, 2, 0, 2, 2, 2])
        # Class 2 (session 2) has no train nodes.
        with pytest.raises(ValueError, match="^class 2 has no train node; the graph declares 3"):
            run_one_class_sessions(g, tmp_path)

    def test_empty_test_split_aborts_in_its_session(self, tmp_path):
        g = make_graph(6, [(0, 1), (2, 3), (4, 5)], [0, 0, 1, 1, 2, 2], 3,
                       split=[0, 2, 0, 2, 0, 3])
        # Class 2 (session 2) has no test nodes.
        with pytest.raises(ValueError, match="session 2 .* empty test set"):
            run_one_class_sessions(g, tmp_path)

    def test_each_task_extracted_once(self, monkeypatch):
        """Frozen features are extracted in the session that introduces a task, never again."""
        import acgl.harness as harness

        calls = []
        original = harness.gcn_forward

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "gcn_forward", counting)
        res = run_experiment(FIXTURE_EXPERIMENT)
        assert len(calls) == res.plan.num_sessions

    def test_expand_sees_only_train_and_test_rows(self, monkeypatch):
        """Val and unlabelled nodes go through the GCN but never reach the expander."""
        import acgl.harness as harness

        rows = []
        original = harness.expand

        def recording(hidden, params):
            rows.append(hidden.shape[0])
            return original(hidden, params)

        monkeypatch.setattr(harness, "expand", recording)
        res = run_experiment(FIXTURE_EXPERIMENT)
        graph = resolve_graph(FIXTURE_EXPERIMENT)
        subs = [session_subgraph(graph, group) for group in res.plan.groups]
        split_sizes = {int(m.sum()) for sub in subs for m in (sub.train_mask, sub.test_mask)}
        used = sum(int((sub.train_mask | sub.test_mask).sum()) for sub in subs)
        assert used < sum(sub.num_nodes for sub in subs)  # the fixture has val nodes
        assert sum(rows) == used
        assert set(rows) <= split_sizes

    def test_no_batch_outlives_its_absorption(self, monkeypatch):
        """The base batch is freed before the first update, session k's before k + 1's."""
        import acgl.harness as harness

        refs, alive_at_update = [], []
        align, update = harness.align_base, harness.update_weights

        def tracking_align(X0, Y0, *args, **kwargs):
            refs.append(weakref.ref(X0))
            return align(X0, Y0, *args, **kwargs)

        def tracking_update(state, batch):
            alive_at_update.append([k for k, ref in enumerate(refs) if ref() is not None])
            refs.append(weakref.ref(batch.features))
            return update(state, batch)

        monkeypatch.setattr(harness, "align_base", tracking_align)
        monkeypatch.setattr(harness, "update_weights", tracking_update)
        res = run_experiment(FIXTURE_EXPERIMENT)
        assert alive_at_update == [[]] * (res.plan.num_sessions - 1)
        assert all(ref() is None for ref in refs)

    def test_final_row_equals_fresh_extraction(self, fixture_result):
        """The rows the run kept equal each task re-extracted from scratch, bit for bit."""
        res = fixture_result
        graph = resolve_graph(FIXTURE_EXPERIMENT)
        assert len(res.test_rows) == res.plan.num_sessions
        for (features, labels), group in zip(res.test_rows, res.plan.groups):
            fresh_features, fresh_labels = oracle_test_rows(graph, group, res.backbone,
                                                            res.expander)
            np.testing.assert_array_equal(features, fresh_features)
            np.testing.assert_array_equal(labels, fresh_labels)

    def test_test_rows_score_final_row(self, fixture_result):
        """Scoring each returned task with the final state reproduces the matrix's last row."""
        res = fixture_result
        assert tuple(evaluate_task(res.state, *rows) for rows in res.test_rows) == \
            res.matrix.final_row

    def test_train_batch_freed_before_test_rows_expand(self, monkeypatch):
        """When a session's test rows are expanded, its train batch is already dead."""
        refs, dead_at_test_expand = [], []
        align, update, expand = harness.align_base, harness.update_weights, harness.expand

        def tracking_align(X0, Y0, *args, **kwargs):
            refs.append(weakref.ref(X0))
            return align(X0, Y0, *args, **kwargs)

        def tracking_update(state, batch):
            refs.append(weakref.ref(batch.features))
            return update(state, batch)

        def tracking_expand(hidden, params):
            if len(refs) > len(dead_at_test_expand):  # the session's fit is done: test rows
                dead_at_test_expand.append(refs[-1]() is None)
            return expand(hidden, params)

        monkeypatch.setattr(harness, "align_base", tracking_align)
        monkeypatch.setattr(harness, "update_weights", tracking_update)
        monkeypatch.setattr(harness, "expand", tracking_expand)
        res = run_experiment(FIXTURE_EXPERIMENT)
        assert dead_at_test_expand == [True] * res.plan.num_sessions

    @pytest.mark.parametrize("split, error, match", [
        ([0, 2, 0, 2, 2, 2], ValueError, "^class 2 has no train node; the graph declares 3"),
        ([0, 2, 0, 2, 0, 3], ValueError, "session 2 .* empty test set"),
    ], ids=["train", "test"])
    def test_bad_last_split_fails_before_backbone_trains(self, tmp_path, monkeypatch,
                                                         split, error, match):
        g = make_graph(6, [(0, 1), (2, 3), (4, 5)], [0, 0, 1, 1, 2, 2], 3, split=split)
        trained = []
        monkeypatch.setattr(harness, "train_base", lambda *args: trained.append(args))
        with pytest.raises(error, match=match):
            run_one_class_sessions(g, tmp_path)
        assert trained == []

    @pytest.mark.parametrize("dim", [4, 8])
    def test_narrow_expander_fails_before_backbone_trains(self, dim):
        # ExperimentConfig refuses the width when it is built, so no run starts.
        with pytest.raises(FieldError, match=re.escape(
                f"expander.dim must exceed backbone.hidden (got {dim})")):
            ExperimentConfig(
                synthetic=SyntheticSpec(classes=4, nodes_per_class=20, features=6),
                c0=2, k=1, backbone=BackboneConfig(hidden=8, epochs=5),
                expander=ExpanderConfig(dim=dim), seed=0,
            )


class TestEvaluateTask:
    def test_saturated_state_scores_one(self, fixture_result):
        # The state saturated on task 0: fit at the fixture's gamma on the very
        # test rows that the run's trained backbone and expander extract. Rows
        # that the pipeline collapsed together or zeroed out would tie or
        # cross, and score below one.
        group = fixture_result.plan.groups[0]
        features, labels = fixture_result.test_rows[0]
        state = align_base(features, one_hot(labels, group), FIXTURE_EXPERIMENT.gamma)
        assert evaluate_task(state, features, labels) == 1.0

    def test_random_weights_score_near_chance(self):
        # Monte-Carlo over 10 seeds: mean accuracy of a random classifier
        # over C balanced classes concentrates near 1/C.
        from acgl.synthetic import generate_synthetic
        from acgl.backbone import init_backbone

        c = 4
        accs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = generate_synthetic(c, 30, 8, 0.5, seed=seed)
            backbone = init_backbone(8, 6, 2, rng)
            expander = init_expander(6, 12, seed=seed)
            state = AnalyticState(weights=rng.normal(size=(12, c)), R=np.eye(12))
            accs.append(evaluate_task(state, *oracle_test_rows(g, range(c), backbone, expander)))
        mean = np.mean(accs)
        assert abs(mean - 1.0 / c) < 0.12

    def test_untrained_classes_do_not_error(self, fixture_result):
        rng = np.random.default_rng(0)
        partial = AnalyticState(weights=rng.normal(size=(64, 2)), R=np.eye(64))
        acc = evaluate_task(partial, *fixture_result.test_rows[2])
        assert acc == 0.0  # task 2's class has no column, so no row is predicted right

    def test_row_count_mismatch_rejected(self):
        state = AnalyticState(weights=np.eye(2), R=np.eye(2))
        # One label against three rows would otherwise broadcast to an accuracy above 1.
        with pytest.raises(ValueError, match="3 feature rows but 1 labels"):
            evaluate_task(state, np.eye(2)[[0, 0, 0]], np.array([0]))

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), ()])
    def test_labels_not_a_vector_rejected(self, shape):
        # An (n, 1) column would broadcast against the (n,) predictions to an
        # (n, n) hit mask, an accuracy of 2.0 here.
        state = AnalyticState(weights=np.ones((3, 2)), R=np.eye(3))
        message = f"labels must be a vector: labels shape {shape}, features shape (2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_task(state, np.ones((2, 3)), np.zeros(shape, dtype=np.int64))

    # Float labels would be compared by value: 0.5 would miss and 1.0 hit, an accuracy of 0.5.
    @pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, 1.0], [False, True]])
    def test_labels_must_be_integers(self, labels):
        state = AnalyticState(weights=np.eye(2), R=np.eye(2))
        labels = np.array(labels)
        message = f"labels must be integer class ids: labels dtype {labels.dtype}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_task(state, [[1.0, 0.0], [0.0, 1.0]], labels)

    def test_empty_test_set_rejected(self, fixture_result):
        state = fixture_result.state
        with pytest.raises(ValueError, match="empty test set"):
            evaluate_task(state, np.empty((0, state.feature_dim)), np.empty(0, dtype=np.int64))


def test_feature_dim_flows_from_expander():
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(classes=4, nodes_per_class=20, features=6),
        c0=2, k=2, gamma=1.0,
        backbone=BackboneConfig(hidden=8, epochs=5, dropout=0.0),
        expander=ExpanderConfig(dim=24),
        seed=3,
    )
    res = run_experiment(cfg)
    assert res.state.feature_dim == 24
    assert res.matrix.num_sessions == 2

@pytest.mark.parametrize("dataset_path, synthetic", [(None, None), ("data/toy", SyntheticSpec())])
def test_exactly_one_graph_source_required(dataset_path, synthetic):
    with pytest.raises(ValueError, match="exactly one of dataset_path and synthetic"):
        ExperimentConfig(dataset_path=dataset_path, synthetic=synthetic)


@pytest.mark.parametrize("gamma", [0.0, float("nan"), float("inf")])
def test_gamma_must_be_finite_and_positive(gamma):
    # Refused before any backbone trains, in the same words as align_base's.
    with pytest.raises(ValueError, match=re.escape(
            f"gamma must be finite and positive (got {gamma!r})")):
        ExperimentConfig(synthetic=SyntheticSpec(), gamma=gamma)


@pytest.mark.parametrize("settings, field, line", [
    (dict(c0=4), "c0", "c0 must satisfy 1 <= c0 < C = 4 (got 4)"),
    (dict(c0=2, k=3), "k", "k must satisfy 1 <= k <= C - c0 = 2 (got 3)"),
    (dict(k=0), "k", "k must be >= 1 (got 0)"),
], ids=["c0", "k_after_c0", "k_zero"])
def test_bad_plan_refused_when_built(settings, field, line):
    with pytest.raises(FieldError) as info:
        ExperimentConfig(synthetic=SyntheticSpec(classes=4), **settings)
    assert (info.value.field, str(info.value)) == (field, line)


def test_dataset_plan_is_checked_by_the_run(tmp_path):
    # A dataset's class count is known only after load: the config builds, the run refuses.
    save_dataset(make_graph(8, [], [0, 0, 1, 1, 2, 2, 3, 3], 4, split=np.array([0, 2] * 4)),
                 tmp_path)
    cfg = ExperimentConfig(dataset_path=str(tmp_path), c0=9, backbone=BackboneConfig(hidden=4),
                           expander=ExpanderConfig(dim=8))
    with pytest.raises(FieldError, match=re.escape("c0 must satisfy 1 <= c0 < C = 4 (got 9)")):
        run_experiment(cfg)


def test_align_base_state_reproduces_first_row(fixture_run):
    """Refitting the base stage from its recorded batch reproduces M[0][0]."""
    res, batches = fixture_run
    X0, Y0 = batches[0]
    state = align_base(X0, Y0, FIXTURE_EXPERIMENT.gamma)
    acc = evaluate_task(state, *res.test_rows[0])
    assert acc == res.matrix.entry(0, 0)


def test_each_session_targets_checked_once(monkeypatch):
    """The base session's targets reach align_base as arrays, not as a SessionBatch."""
    checked = []
    check = analytic._check_targets
    monkeypatch.setattr(analytic, "_check_targets", lambda X, Y: checked.append(Y.shape) or
                        check(X, Y))
    res = run_experiment(FIXTURE_EXPERIMENT)
    assert [shape[1] for shape in checked] == [len(g) for g in res.plan.groups]


def test_matrix_unchanged_under_tie_oracle(monkeypatch):
    """A 12-class stream of one-class sessions scores the same through the tie-rule oracle.

    Widths this narrow leave some expanded test rows all zero: their scores
    tie across every seen class, so the tie rule decides them.
    """
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(classes=12, nodes_per_class=20, features=8, homophily=0.6,
                                class_sep=0.3),
        c0=1, k=1, gamma=1.0,
        backbone=BackboneConfig(hidden=4, epochs=5, dropout=0.0),
        expander=ExpanderConfig(dim=8),
        seed=2,
    )
    zero_rows = []

    def counting_predict(X, state):
        zero_rows.append(int((~X.any(axis=1)).sum()))
        return predict(X, state)

    monkeypatch.setattr(harness, "predict", counting_predict)
    rows = run_experiment(cfg).matrix.rows
    monkeypatch.setattr(harness, "predict", oracle_predict)
    oracle_rows = run_experiment(cfg).matrix.rows
    assert len(rows) == 12 and sum(zero_rows) > 0
    assert [[v.hex() for v in row] for row in rows] == \
        [[v.hex() for v in row] for row in oracle_rows]
