"""Analytic continual graph learning.

A GCN backbone is trained once on a base set of classes, then frozen.
Classes arriving in later sessions are absorbed by a closed-form ridge
classifier over randomly expanded embeddings, updated recursively so the
result is numerically identical to refitting on every session at once
while retaining only two fixed-size matrices between sessions: the weights,
whose column j scores class id j, and R, the upper-triangular Cholesky
factor of the regularized Gram (R^T R = G). The paper's inverse G^{-1} is
formed on demand as ``AnalyticState.inv_gram``.

Importing the package pins BLAS to one thread unless the caller has set the
thread variables. A BLAS reads them once, when numpy is first imported, so a
program that imports numpy before acgl must set them itself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .analytic import (
    AnalyticState,
    SessionBatch,
    align_base,
    joint_solve,
    predict,
    update_R,
    update_weights,
)
from .backbone import (
    AdamState,
    BackboneConfig,
    BackboneParams,
    adam_step,
    gcn_backward,
    gcn_forward,
    masked_softmax_cross_entropy,
    train_base,
)
from .datasets import DatasetFormatError, load_dataset, save_dataset
from .expander import ExpanderParams, expand, init_expander
from .graph import (
    Graph,
    SessionPlan,
    build_session_plan,
    default_base_size,
    normalize_adjacency,
    session_subgraph,
)
from .harness import (
    ExperimentConfig,
    ExpanderConfig,
    PerformanceMatrix,
    RunResult,
    evaluate_task,
    run_experiment,
)
from .metrics import (
    RunReport,
    average_forgetting,
    average_performance,
    emit_report,
)
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AnalyticState",
    "BackboneConfig",
    "BackboneParams",
    "DatasetFormatError",
    "ExpanderConfig",
    "ExpanderParams",
    "ExperimentConfig",
    "Graph",
    "PerformanceMatrix",
    "RunReport",
    "RunResult",
    "SessionBatch",
    "SessionPlan",
    "SyntheticSpec",
    "adam_step",
    "align_base",
    "average_forgetting",
    "average_performance",
    "build_session_plan",
    "default_base_size",
    "emit_report",
    "evaluate_task",
    "expand",
    "gcn_backward",
    "gcn_forward",
    "generate_synthetic",
    "init_expander",
    "joint_solve",
    "load_dataset",
    "masked_softmax_cross_entropy",
    "normalize_adjacency",
    "predict",
    "run_experiment",
    "save_dataset",
    "session_subgraph",
    "train_base",
    "update_R",
    "update_weights",
]
