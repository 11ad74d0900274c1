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
seen task's test rows (n_test x d floats), and returns the rows as
``RunResult.test_rows``; they are evaluation data, not learner state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import (AnalyticState, SessionBatch, align_base, check_gamma, predict,
                       update_weights)
from .backbone import BackboneConfig, BackboneParams, gcn_forward, train_base
from .datasets import load_dataset
from .expander import ExpanderParams, expand, init_expander
from .graph import (
    Graph,
    SessionPlan,
    build_session_plan,
    check_class_coverage,
    check_fields,
    normalize_adjacency,
    session_subgraph,
)
from .synthetic import SyntheticSpec, generate_synthetic


@dataclass(frozen=True)
class ExpanderConfig:
    dim: int = 2048


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, checked when it is built.

    All randomness flows from ``seed``, by offsets :func:`run_experiment`
    applies. Exactly one of ``dataset_path`` and ``synthetic`` is set.
    Classes run in ascending id order: the base session takes the first
    ``c0`` ids, each later session the next ``k``, so class id j is column
    j of the classifier's weights. A ``k`` below 1, an ``expander.dim`` not
    above ``backbone.hidden``, or a ``c0`` or ``k`` a synthetic run's
    :class:`SessionPlan` cannot hold raises that field's ``FieldError``; a
    dataset's plan is checked in :func:`run_experiment`, once it is loaded.
    """

    dataset_path: str | None = None
    synthetic: SyntheticSpec | None = None
    c0: int | None = None            # None: half the classes, rounded up
    k: int = 1
    gamma: float = 1.0
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    expander: ExpanderConfig = field(default_factory=ExpanderConfig)
    seed: int = 42

    def __post_init__(self):
        check_gamma(self.gamma)
        check_fields(self, [
            ("seed", self.seed >= 0, "must be >= 0"),
            ("k", self.k >= 1, "must be >= 1"),
            ("expander.dim", self.expander.dim > self.backbone.hidden,
             "must exceed backbone.hidden"),
        ])
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of dataset_path and synthetic must be set")
        if self.synthetic is not None:
            SessionPlan(self.synthetic.classes, self.c0, self.k)


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
    """What a run returns; ``test_rows[i]`` is task i's ``(features, labels)`` as the run scored it."""

    matrix: PerformanceMatrix
    test_rows: tuple[tuple[np.ndarray, np.ndarray], ...]
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
        seed=config.seed, class_sep=s.class_sep,
    )


def evaluate_task(state: AnalyticState, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of one task's test rows that ``predict`` labels right, over all seen classes.

    One ``predict`` call per task, so one score product and one argmax. The
    count of hits over the row count is the same float64 quotient as the
    mean of the hit mask. An empty task, or labels that are not an integer
    vector of one label per feature row, raise ValueError. The labels' range
    is not checked: a class the state has no column for is never predicted,
    so its rows score as misses.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class ids: labels dtype {labels.dtype}")
    if labels.ndim != 1:
        raise ValueError(f"labels must be a vector: labels shape {labels.shape}, "
                         f"features shape {np.shape(features)}")
    if len(labels) == 0:
        raise ValueError("task has an empty test set")
    if len(labels) != len(features):
        raise ValueError(f"{len(features)} feature rows but {len(labels)} labels")
    return float(np.count_nonzero(predict(features, state) == labels) / len(labels))


def _absorb(state: AnalyticState | None, graph: Graph, class_ids, backbone, expander,
            gamma: float) -> tuple[AnalyticState, tuple[np.ndarray, np.ndarray]]:
    """Extract one session and absorb its train rows; returns the new state and its test rows.

    ``align_base`` fits the base session (``state`` None), ``update_weights``
    every later one. The train batch is deleted as soon as the fit returns,
    so it is freed before the test rows are expanded.
    """
    sub = session_subgraph(graph, class_ids)
    hidden, _ = gcn_forward(normalize_adjacency(sub), sub.features, backbone)
    train, test = sub.train_mask, sub.test_mask
    X = expand(hidden[train], expander)
    Y = (sub.labels[train, None] == np.asarray(class_ids)).astype(np.float64)
    if state is None:
        state = align_base(X, Y, gamma)
    else:
        state = update_weights(state, SessionBatch(features=X, targets=Y))
    del X, Y
    return state, (expand(hidden[test], expander), sub.labels[test])


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute the full protocol; returns M, each task's test rows, per-stage timings, final state.

    Deterministic given ``config.seed``: the graph draws from it, the
    backbone from ``seed + 1`` and the expander from ``seed + 2``, so two
    identical invocations produce identical matrices and weights.
    """
    t0 = time.perf_counter()
    graph = resolve_graph(config)
    t_load = time.perf_counter() - t0
    check_class_coverage(graph)
    plan = build_session_plan(graph, config.c0, config.k)
    # Every session's test set is checked before the backbone trains on any of them.
    test_count = np.bincount(graph.labels[graph.test_mask], minlength=graph.num_classes)
    for k, class_ids in enumerate(plan.groups):
        if not test_count[list(class_ids)].any():
            raise ValueError(f"session {k} (classes {list(class_ids)}) has an empty test set")

    # ExperimentConfig has checked the expander's width; it draws from its own
    # generator, so making it before the backbone trains changes no bit.
    expander = init_expander(config.backbone.hidden, config.expander.dim, seed=config.seed + 2)

    t0 = time.perf_counter()
    backbone = train_base(graph, plan, config.backbone, config.seed + 1)
    t_base = time.perf_counter() - t0

    state = None
    test_rows = []                   # (features, labels) of each seen task, in session order
    rows: list[tuple[float, ...]] = []
    fit_times: list[float] = []      # the base session's align, then each update
    eval_times: list[float] = []
    for class_ids in plan.groups:
        t0 = time.perf_counter()
        state, task_test = _absorb(state, graph, class_ids, backbone, expander, config.gamma)
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
        test_rows=tuple(test_rows),
        timings=timings,
        state=state,
        plan=plan,
        backbone=backbone,
        expander=expander,
    )
