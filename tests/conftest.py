import acgl  # first: sets the BLAS thread defaults before numpy loads
import math
import os
from pathlib import Path

import numpy as np
import pytest

from acgl import harness, threads
from acgl.analytic import SessionBatch, align_base, update_weights
from acgl.backbone import (
    BackboneConfig,
    BackboneParams,
    fit,
    gcn_forward,
    glorot_uniform,
    train_base,
)
from acgl.expander import expand
from acgl.graph import (
    Graph,
    build_session_plan,
    normalize_adjacency,
    session_subgraph,
)
from acgl.harness import ExpanderConfig, ExperimentConfig, PerformanceMatrix, SyntheticSpec


SRC = str(Path(acgl.__file__).resolve().parents[1])


def child_env(unset=(), **values) -> dict[str, str]:
    """The environment of an acgl child process: this one's, less the variables in ``unset``,
    with ``values`` set and :data:`SRC` first on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(values)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def make_graph(num_nodes, edges, labels, num_classes, d=2, seed=0, split=None):
    """Small hand-specified graph; features random unless given via seed. ``split`` holds
    the split codes (default: every node in train)."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_nodes, d))
    return Graph(
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        split=np.zeros(num_nodes, dtype=np.int64) if split is None else split,
        num_classes=num_classes,
    )


def random_graph(rng, num_nodes, num_classes=3, d=4, edge_prob=0.3):
    """Erdos-Renyi style random graph with random train/val/test codes."""
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
             if rng.random() < edge_prob]
    labels = rng.integers(num_classes, size=num_nodes)
    split = rng.integers(3, size=num_nodes)
    return make_graph(
        num_nodes, pairs or np.empty((0, 2)), labels, num_classes, d=d,
        seed=int(rng.integers(2**31)), split=split,
    )


def run_recording_batches(monkeypatch, config):
    """Run ``config`` and record the (X, Y) of every session the learner absorbs.

    Wraps the harness's ``align_base`` and ``update_weights`` call sites, so
    the run itself keeps no training rows. Returns ``(RunResult, batches)``.
    """
    batches = []
    align, update = harness.align_base, harness.update_weights

    def recording_align(X0, Y0, *args, **kwargs):
        batches.append((X0, Y0))
        return align(X0, Y0, *args, **kwargs)

    def recording_update(state, batch):
        batches.append((batch.features, batch.targets))
        return update(state, batch)

    monkeypatch.setattr(harness, "align_base", recording_align)
    monkeypatch.setattr(harness, "update_weights", recording_update)
    return harness.run_experiment(config), batches


def oracle_test_rows(graph, class_ids, params, expander):
    """One task's test rows extracted from scratch: normalize, ``gcn_forward``, then ``expand``.

    The independent reference for the rows a run keeps in ``RunResult.test_rows``.
    """
    sub = session_subgraph(graph, class_ids)
    hidden, _ = gcn_forward(normalize_adjacency(sub), sub.features, params)
    return expand(hidden[sub.test_mask], expander), sub.labels[sub.test_mask]


def count_splits(monkeypatch):
    """Record each product that hands a part to the helper thread."""
    calls = []
    helper = threads._helper_thread
    monkeypatch.setattr(threads, "_helper_thread", lambda pid: calls.append(pid) or helper(pid))
    return calls


def one_call(monkeypatch):
    """Make every split routine the one-call reference: no product is cut or handed off.

    ``split_matmul`` and ``split_tpqrt`` become one BLAS or LAPACK call, and
    ``split_gram`` runs its tile and block column in turn on the calling thread.
    """
    monkeypatch.setattr(threads, "SMALL_GEMM_MADDS", math.inf)


def run_recursion(sessions, gamma):
    """The recursion's state after ``sessions``, each a SessionBatch or an (X, Y) pair."""
    pairs = [(s.features, s.targets) if isinstance(s, SessionBatch) else s for s in sessions]
    state = align_base(*pairs[0], gamma)
    for X, Y in pairs[1:]:
        state = update_weights(state, SessionBatch(X, Y))
    return state


def one_hot(labels, class_ids):
    """float64 targets with one column per entry of ``class_ids``, in that order."""
    return (np.asarray(labels)[:, None] == np.asarray(class_ids)).astype(np.float64)


def oracle_predict(X, state):
    """``predict``'s tie rule written out: the smallest class id among each row's maximal scores.

    Column j of the weights is class id j. The reference for ``predict``'s
    single argmax; the finiteness and shape checks are ``predict``'s own and
    are left out.
    """
    scores = np.asarray(X, dtype=np.float64) @ state.weights
    ids = np.arange(scores.shape[1], dtype=np.int64)
    best = scores.max(axis=1, keepdims=True)
    return np.where(scores == best, ids[None, :], np.iinfo(np.int64).max).min(axis=1)


def finetune_matrix(config: ExperimentConfig) -> PerformanceMatrix:
    """The performance matrix of plain fine-tuning, the backprop baseline with no replay.

    Same graph, plan and ``train_base`` as ``run_experiment(config)``. Each
    later session appends Glorot head columns for its classes and runs
    ``backbone.fit``, the loop ``train_base`` runs, on that session's
    subgraph and train nodes only. Each seen task is scored on its own
    subgraph's test nodes by argmax over every seen head column. New head
    columns and dropout masks draw from ``seed + 3``. This is the
    "Fine-tune" lower bound of CGLB (Zhang, Song & Tao, NeurIPS 2022).
    """
    graph = harness.resolve_graph(config)
    plan = build_session_plan(graph, config.c0, config.k)
    cfg = config.backbone
    params = train_base(graph, plan, cfg, config.seed + 1)
    rng = np.random.default_rng(config.seed + 3)
    tasks = [(g, normalize_adjacency(g)) for g in
             (session_subgraph(graph, group) for group in plan.groups)]
    seen = np.array(plan.groups[0], dtype=np.int64)
    rows = []
    for k, (sub, adj) in enumerate(tasks):
        if k:
            seen = np.concatenate([seen, plan.groups[k]])
            head = np.hstack([params.W1, glorot_uniform(rng, cfg.hidden, len(plan.groups[k]))])
            # Head column of each node's class: seen is ascending, as the plan's groups are.
            params = fit(BackboneParams(W0=params.W0, W1=head), adj, sub.features,
                         np.searchsorted(seen, sub.labels), sub.train_mask, cfg, rng)
        row = []
        for task, task_adj in tasks[:k + 1]:
            predicted = seen[gcn_forward(task_adj, task.features, params)[1].argmax(axis=1)]
            test = task.test_mask
            row.append(float(np.mean(predicted[test] == task.labels[test])))
        rows.append(tuple(row))
    return PerformanceMatrix(rows=tuple(rows))


# The standard run used across harness/CLI/acceptance tests. Baselines for
# it (base accuracy, M diagonal) were recorded when first implemented.
FIXTURE_EXPERIMENT = ExperimentConfig(
    synthetic=SyntheticSpec(classes=4, nodes_per_class=50, features=16, homophily=0.9),
    c0=2,
    k=1,
    gamma=1.0,
    backbone=BackboneConfig(hidden=32, epochs=50, lr=0.01, dropout=0.5, weight_decay=5e-4),
    expander=ExpanderConfig(dim=64),
    seed=1,
)

# Harder variant where regularization and expansion width actually matter;
# used by sweep-shape tests.
SWEEP_FIXTURE_LINES = """
synthetic.classes = 4
synthetic.nodes_per_class = 40
synthetic.features = 8
synthetic.homophily = 0.6
synthetic.class_sep = 0.55
plan.base_classes = 2
plan.increment = 1
backbone.hidden = 24
backbone.epochs = 40
backbone.lr = 0.01
backbone.dropout = 0.3
expander.dim = 48
seed = 5
"""


@pytest.fixture
def sweep_config_file(tmp_path):
    path = tmp_path / "sweep_fixture.cfg"
    path.write_text(SWEEP_FIXTURE_LINES)
    return path
