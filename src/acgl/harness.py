"""Class-incremental experiment loop: train base, align, recurse, evaluate.

The protocol has three stages. The backbone is trained with
backpropagation on the base session only, then frozen. Its embeddings are
pushed through the frozen random expander and the analytic classifier is
fit in closed form on the base session. Every later session is absorbed
with one feature-extraction pass and one recursive update; no session's
training rows are kept afterwards.

Because the backbone and expander never change after the base session, a
task's expanded features are fixed from the session that introduces it.
That session's single extraction yields both its training batch and the
task's test rows; the test rows are kept and, after each session, every
seen task's rows are scored to fill the lower-triangular performance
matrix M[k][i]. The kept rows are evaluation data (sum of n_test * d
floats), not learner state: the classifier still holds only W and R.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticState, SessionBatch, align_base, one_hot, predict, update_weights
from .backbone import BackboneConfig, BackboneParams, gcn_forward, train_base
from .datasets import load_dataset
from .expander import ExpanderParams, expand, init_expander
from .graph import (
    Graph,
    SessionPlan,
    build_session_plan,
    default_base_size,
    normalize_adjacency,
    session_subgraph,
)
from .synthetic import generate_synthetic


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 4
    nodes_per_class: int = 50
    features: int = 16
    homophily: float = 0.9
    avg_degree: float = 4.0
    class_sep: float = 1.0


@dataclass(frozen=True)
class ExpanderConfig:
    dim: int = 2048
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; all randomness flows from the three seeds."""

    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = None
    c0: int | None = None            # None: half the classes, rounded up
    k: int = 1
    shuffle_classes: bool = False
    gamma: float = 1.0
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    expander: ExpanderConfig = field(default_factory=ExpanderConfig)
    data_seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.dataset_path is None and self.synthetic is None:
            raise ValueError("either a dataset path or a synthetic spec is required")


@dataclass(frozen=True)
class PerformanceMatrix:
    """Lower-triangular accuracies: rows[k][i] = accuracy on task i after session k."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for k, row in enumerate(self.rows):
            if len(row) != k + 1:
                raise ValueError(f"row {k} must have {k + 1} entries, has {len(row)}")
            if any(not 0.0 <= v <= 1.0 for v in row):
                raise ValueError(f"row {k} has accuracy outside [0, 1]")

    @property
    def num_sessions(self) -> int:
        return len(self.rows)

    def entry(self, k: int, i: int) -> float:
        if i > k:
            raise IndexError(f"M[{k}][{i}] is above the diagonal")
        return self.rows[k][i]

    @property
    def final_row(self) -> tuple[float, ...]:
        return self.rows[-1]


@dataclass(frozen=True)
class RunResult:
    matrix: PerformanceMatrix
    timings: dict
    state: AnalyticState
    plan: SessionPlan
    backbone: BackboneParams
    expander: ExpanderParams


def resolve_graph(config: ExperimentConfig) -> Graph:
    if config.dataset_path is not None:
        return load_dataset(config.dataset_path)
    s = config.synthetic
    return generate_synthetic(
        s.classes, s.nodes_per_class, s.features, s.homophily,
        seed=config.data_seed, avg_degree=s.avg_degree, class_sep=s.class_sep,
    )


def _extract_expanded(graph: Graph, backbone: BackboneParams,
                      expander: ExpanderParams) -> np.ndarray:
    """Frozen backbone + expander features for every node of one subgraph."""
    adj = normalize_adjacency(graph)
    hidden, _ = gcn_forward(adj, graph.features, backbone)
    return expand(hidden, expander)


def task_test_features(task_graph: Graph, backbone: BackboneParams,
                       expander: ExpanderParams) -> tuple[np.ndarray, np.ndarray]:
    """Expanded features and labels of one task's test nodes, extracted on its subgraph."""
    if not task_graph.test_mask.any():
        raise ValueError("task has an empty test set")
    feats = _extract_expanded(task_graph, backbone, expander)
    test = task_graph.test_mask
    return feats[test], task_graph.labels[test]


def evaluate_task(state: AnalyticState, features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy on one task's precomputed test rows, argmaxing over all seen classes."""
    if len(labels) == 0:
        raise ValueError("task has an empty test set")
    return float((predict(features, state) == labels).mean())


def _session_batch(sub: Graph, backbone, expander, class_ids, session: int,
                   ) -> tuple[SessionBatch, tuple[np.ndarray, np.ndarray]]:
    """One extraction of a session's subgraph: its train batch and its task's test rows."""
    if not sub.train_mask.any():
        raise RuntimeError(
            f"session {session} (classes {list(class_ids)}) has an empty train split"
        )
    if not sub.test_mask.any():
        raise ValueError(
            f"session {session} (classes {list(class_ids)}) has an empty test set"
        )
    feats = _extract_expanded(sub, backbone, expander)
    train, test = sub.train_mask, sub.test_mask
    batch = SessionBatch(
        features=feats[train],
        targets=one_hot(sub.labels[train], class_ids),
        class_ids=tuple(int(c) for c in class_ids),
    )
    return batch, (feats[test], sub.labels[test])


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute the full protocol; returns M, per-stage timings, final state.

    Deterministic given the config's seeds: two identical invocations
    produce identical matrices and weights.
    """
    t0 = time.perf_counter()
    graph = resolve_graph(config)
    t_load = time.perf_counter() - t0
    c0 = config.c0 if config.c0 is not None else default_base_size(graph.num_classes)
    class_order = None
    if config.shuffle_classes:
        order_rng = np.random.default_rng(config.data_seed)
        class_order = list(order_rng.permutation(graph.num_classes))
    plan = build_session_plan(graph, c0, config.k, class_order)

    t0 = time.perf_counter()
    backbone = train_base(graph, plan, config.backbone)
    t_base = time.perf_counter() - t0

    expander = init_expander(config.backbone.hidden, config.expander.dim,
                             seed=config.expander.seed)

    t0 = time.perf_counter()
    base_batch, base_test = _session_batch(session_subgraph(graph, plan.groups[0]),
                                           backbone, expander, plan.groups[0], session=0)
    state = align_base(base_batch.features, base_batch.targets, config.gamma,
                       class_ids=base_batch.class_ids)
    t_align = time.perf_counter() - t0

    test_rows = [base_test]          # (features, labels) of each seen task
    rows: list[tuple[float, ...]] = []
    update_times: list[float] = []
    eval_times: list[float] = []

    def fill_row():
        t_eval = time.perf_counter()
        row = tuple(evaluate_task(state, feats, labels) for feats, labels in test_rows)
        eval_times.append(time.perf_counter() - t_eval)
        rows.append(row)

    fill_row()
    for k in range(1, plan.num_sessions):
        t0 = time.perf_counter()
        batch, task_test = _session_batch(session_subgraph(graph, plan.groups[k]),
                                          backbone, expander, plan.groups[k], session=k)
        state = update_weights(state, batch)
        update_times.append(time.perf_counter() - t0)
        test_rows.append(task_test)
        fill_row()

    timings = {
        "load_s": t_load,
        "base_train_s": t_base,
        "align_s": t_align,
        "update_s": update_times,
        "eval_s": eval_times,
        "total_s": t_base + t_align + sum(update_times) + sum(eval_times),
    }
    return RunResult(
        matrix=PerformanceMatrix(rows=tuple(rows)),
        timings=timings,
        state=state,
        plan=plan,
        backbone=backbone,
        expander=expander,
    )
