"""Class-incremental experiment loop: train base, align, recurse, evaluate.

The protocol has three stages. The backbone is trained with
backpropagation on the base session only, then frozen. Its embeddings are
pushed through the frozen random expander and the analytic classifier is
fit in closed form on the base session. Every later session is absorbed
with one feature-extraction pass and one recursive update. A pass runs the
GCN over the whole session subgraph (message passing needs every node) but
expands only its train and test rows, and the train batch is freed once
``align_base`` or ``update_weights`` returns.

Because the backbone and expander never change after the base session, a
task's expanded features are fixed from the session that introduces it:
its test rows are kept and scored after every later session to fill the
lower-triangular performance matrix M[k][i]. So a run holds R, W and each
seen task's test rows (n_test x d floats); the rows are evaluation data,
not learner state.
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
    check_class_coverage,
    check_fields,
    default_base_size,
    normalize_adjacency,
    session_subgraph,
)
from .synthetic import SyntheticSpec, generate_synthetic


@dataclass(frozen=True)
class ExpanderConfig:
    dim: int = 2048
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs.

    All randomness flows from ``data_seed``, ``backbone.seed`` and
    ``expander.seed``. Classes run in ascending id order: the base session
    takes the first ``c0`` ids, each later session the next ``k``.
    """

    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = None
    c0: int | None = None            # None: half the classes, rounded up
    k: int = 1
    gamma: float = 1.0
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    expander: ExpanderConfig = field(default_factory=ExpanderConfig)
    data_seed: int = 0

    def __post_init__(self):
        check_fields(self, [("gamma", self.gamma > 0, "must be positive")])
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
        seed=config.data_seed, class_sep=s.class_sep,
    )


def _hidden(graph: Graph, backbone: BackboneParams) -> np.ndarray:
    """Frozen backbone embeddings of every node of one subgraph."""
    hidden, _ = gcn_forward(normalize_adjacency(graph), graph.features, backbone)
    return hidden


def task_test_features(task_graph: Graph, backbone: BackboneParams,
                       expander: ExpanderParams) -> tuple[np.ndarray, np.ndarray]:
    """Expanded features and labels of one task's test nodes, extracted on its subgraph.

    These n_test x d rows are all a run keeps of a task; no other node is expanded.
    """
    test = task_graph.test_mask
    if not test.any():
        raise ValueError("task has an empty test set")
    return expand(_hidden(task_graph, backbone)[test], expander), task_graph.labels[test]


def evaluate_task(state: AnalyticState, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of one task's test rows that ``predict`` labels right, over all seen classes.

    One ``predict`` call per task, so one GEMM and one argmax. The count of
    hits over the row count is the same float64 quotient as the mean of the
    hit mask. An empty task, or labels that do not match the feature rows
    one to one, raise ValueError.
    """
    if len(labels) == 0:
        raise ValueError("task has an empty test set")
    if len(labels) != len(features):
        raise ValueError(f"{len(features)} feature rows but {len(labels)} labels")
    return float(np.count_nonzero(predict(features, state) == labels) / len(labels))


def _fit(state: AnalyticState | None, batch: SessionBatch, gamma: float) -> AnalyticState:
    """Absorb one train batch: ``align_base`` when ``state`` is None, else ``update_weights``."""
    if state is None:
        return align_base(batch.features, batch.targets, gamma, class_ids=batch.class_ids)
    return update_weights(state, batch)


def _absorb(state: AnalyticState | None, graph: Graph, class_ids, session: int, backbone,
            expander, gamma: float) -> tuple[AnalyticState, tuple[np.ndarray, np.ndarray]]:
    """Extract one session and absorb its train rows; returns the new state and its test rows.

    The train batch is a temporary of the ``_fit`` call, so it is freed
    before the test rows are expanded.
    """
    sub = session_subgraph(graph, class_ids)
    train, test = sub.train_mask, sub.test_mask
    where = f"session {session} (classes {list(class_ids)})"
    missing = np.setdiff1d(class_ids, sub.labels[train])
    if missing.size:
        raise RuntimeError(f"{where} has an empty train split for class {missing[0]}")
    if not test.any():
        raise ValueError(f"{where} has an empty test set")
    hidden = _hidden(sub, backbone)
    state = _fit(state, SessionBatch(
        features=expand(hidden[train], expander),
        targets=one_hot(sub.labels[train], class_ids),
        class_ids=tuple(int(c) for c in class_ids),
    ), gamma)
    return state, (expand(hidden[test], expander), sub.labels[test])


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute the full protocol; returns M, per-stage timings, final state.

    Deterministic given the config's seeds: two identical invocations
    produce identical matrices and weights.
    """
    t0 = time.perf_counter()
    graph = resolve_graph(config)
    t_load = time.perf_counter() - t0
    check_class_coverage(graph)
    c0 = config.c0 if config.c0 is not None else default_base_size(graph.num_classes)
    plan = build_session_plan(graph, c0, config.k)

    t0 = time.perf_counter()
    backbone = train_base(graph, plan, config.backbone)
    t_base = time.perf_counter() - t0

    expander = init_expander(config.backbone.hidden, config.expander.dim,
                             seed=config.expander.seed)

    state = None
    test_rows = []                   # (features, labels) of each seen task
    rows: list[tuple[float, ...]] = []
    fit_times: list[float] = []      # the base session's align, then each update
    eval_times: list[float] = []
    for k, class_ids in enumerate(plan.groups):
        t0 = time.perf_counter()
        state, task_test = _absorb(state, graph, class_ids, k, backbone, expander, config.gamma)
        fit_times.append(time.perf_counter() - t0)
        test_rows.append(task_test)
        t0 = time.perf_counter()
        rows.append(tuple(evaluate_task(state, feats, labels) for feats, labels in test_rows))
        eval_times.append(time.perf_counter() - t0)

    timings = {
        "load_s": t_load,
        "base_train_s": t_base,
        "align_s": fit_times[0],
        "update_s": fit_times[1:],
        "eval_s": eval_times,
        "total_s": t_base + sum(fit_times) + sum(eval_times),
    }
    return RunResult(
        matrix=PerformanceMatrix(rows=tuple(rows)),
        timings=timings,
        state=state,
        plan=plan,
        backbone=backbone,
        expander=expander,
    )
