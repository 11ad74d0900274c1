"""Analytic continual graph learning.

A GCN backbone is trained once on a base set of classes, then frozen.
Classes arriving in later sessions are absorbed by a closed-form ridge
classifier over randomly expanded embeddings, updated recursively so the
result is numerically identical to refitting on every session at once
while retaining only two fixed-size matrices between sessions: the weights,
whose column j scores class id j, and R, the upper-triangular Cholesky
factor of the regularized Gram (R^T R = G). The paper's inverse G^{-1} is
formed on demand as ``AnalyticState.inv_gram``.

The package root exports that learner, the run harness, its two metrics and
dataset I/O, the names the README documents. The building blocks stay in
their modules: ``acgl.backbone``, ``acgl.graph``, ``acgl.expander``,
``acgl.metrics`` and ``acgl.threads``.

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
from .backbone import BackboneConfig
from .datasets import DatasetFormatError, load_dataset, save_dataset
from .graph import Graph
from .harness import ExperimentConfig, ExpanderConfig, RunResult, evaluate_task, run_experiment
from .metrics import average_forgetting, average_performance
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AnalyticState",
    "BackboneConfig",
    "DatasetFormatError",
    "ExpanderConfig",
    "ExperimentConfig",
    "Graph",
    "RunResult",
    "SessionBatch",
    "SyntheticSpec",
    "align_base",
    "average_forgetting",
    "average_performance",
    "evaluate_task",
    "generate_synthetic",
    "joint_solve",
    "load_dataset",
    "predict",
    "run_experiment",
    "save_dataset",
    "update_R",
    "update_weights",
]
