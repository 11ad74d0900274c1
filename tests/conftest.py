import acgl  # noqa: F401  (first: sets the BLAS thread defaults before numpy loads)
import numpy as np
import pytest

from acgl import backbone, harness
from acgl.backbone import BackboneConfig
from acgl.graph import Graph, canonical_edges
from acgl.harness import ExpanderConfig, ExperimentConfig, SyntheticSpec


def make_graph(num_nodes, edges, labels, num_classes, d=2, seed=0,
               train=None, val=None, test=None):
    """Small hand-specified graph; features random unless given via seed."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_nodes, d))
    labels = np.asarray(labels, dtype=np.int64)
    if train is None:
        train = np.ones(num_nodes, dtype=bool)
        val = np.zeros(num_nodes, dtype=bool)
        test = np.zeros(num_nodes, dtype=bool)
    return Graph(
        edges=canonical_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), num_nodes),
        features=features,
        labels=labels,
        train_mask=np.asarray(train, dtype=bool),
        val_mask=np.asarray(val, dtype=bool),
        test_mask=np.asarray(test, dtype=bool),
        num_classes=num_classes,
    )


def random_graph(rng, num_nodes, num_classes=3, d=4, edge_prob=0.3):
    """Erdos-Renyi style random graph with random masks."""
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
             if rng.random() < edge_prob]
    labels = rng.integers(num_classes, size=num_nodes)
    split = rng.integers(3, size=num_nodes)
    return make_graph(
        num_nodes, pairs or np.empty((0, 2)), labels, num_classes, d=d,
        seed=int(rng.integers(2**31)),
        train=split == 0, val=split == 1, test=split == 2,
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


def count_splits(monkeypatch):
    """Record each product that hands a half to the backbone's helper thread."""
    calls = []
    helper = backbone._helper_thread
    monkeypatch.setattr(backbone, "_helper_thread", lambda pid: calls.append(pid) or helper(pid))
    return calls


def oracle_predict(X, state):
    """``predict``'s tie rule written out: the smallest class id among each row's maximal scores.

    The reference for ``predict``'s single argmax in class-id order; the
    finiteness and shape checks are ``predict``'s own and are left out.
    """
    scores = np.asarray(X, dtype=np.float64) @ state.weights
    ids = np.asarray(state.seen_classes, dtype=np.int64)
    best = scores.max(axis=1, keepdims=True)
    return np.where(scores == best, ids[None, :], np.iinfo(np.int64).max).min(axis=1)


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
