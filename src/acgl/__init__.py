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

Importing the package pins BLAS to one thread unless the caller has set one
of the thread variables: it sets them where unset, for a BLAS that loads
later, and sets every OpenBLAS already loaded to one thread
(:func:`acgl.threads.pin_openblas`), so the bits do not depend on whether
numpy was imported first.
"""

import os

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_caller_chose_threads = any(var in os.environ for var in _THREAD_VARS)
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

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
from . import threads

if not _caller_chose_threads:
    threads.pin_openblas()
del _var, _caller_chose_threads

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
