"""``acgl.__all__`` is the surface the README documents; the building blocks stay in their
modules, and the four array-holding types freeze a caller's array only where they keep it."""

import ast
import collections
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import acgl
from acgl import AnalyticState, Graph, SessionBatch, analytic
from acgl.expander import ExpanderParams

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
# The first identifier of each `...` span of README.md: `AnalyticState.inv_gram` names
# AnalyticState, `align_base(X0, Y0, gamma)` names align_base.
BACKTICKED = {m.group(0) for span in re.findall(r"`([^`\n]+)`", README)
              if (m := re.match(r"\w+", span))}
# Each name that used to be exported from the package root, and the module that defines it.
DROPPED = {
    "AdamState": "backbone", "BackboneParams": "backbone", "adam_step": "backbone",
    "gcn_backward": "backbone", "gcn_forward": "backbone",
    "masked_softmax_cross_entropy": "backbone", "train_base": "backbone",
    "ExpanderParams": "expander", "expand": "expander", "init_expander": "expander",
    "SessionPlan": "graph", "build_session_plan": "graph", "default_base_size": "graph",
    "normalize_adjacency": "graph", "session_subgraph": "graph",
    "PerformanceMatrix": "harness", "RunReport": "metrics", "emit_report": "metrics",
}


def root_imports(source: str) -> set[str]:
    """Names that ``source`` imports with ``from acgl import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "acgl" and node.level == 0
            for alias in node.names}


# Names the README's examples and the benchmark import from the package root, less the
# submodules (`from acgl import cli`), which are not exports.
IMPORTED = set().union(
    *(root_imports(block) for block in PYTHON_BLOCKS),
    *(root_imports(path.read_text(encoding="utf-8"))
      for path in sorted((ROOT / "perfbench").glob("*.py"))),
) - {module.name for module in pkgutil.iter_modules(acgl.__path__)}


def test_all_names_resolve_once():
    assert [name for name in acgl.__all__ if not hasattr(acgl, name)] == []
    assert [name for name, n in collections.Counter(acgl.__all__).items() if n > 1] == []


def test_every_root_import_is_exported():
    assert "generate_synthetic" in IMPORTED and "save_dataset" in IMPORTED
    assert sorted(IMPORTED - set(acgl.__all__)) == []


def test_every_export_is_imported_or_named_in_the_readme():
    assert sorted(set(acgl.__all__) - IMPORTED - BACKTICKED) == []


@pytest.mark.parametrize("name, module", sorted(DROPPED.items()))
def test_building_block_lives_in_its_module_only(name, module):
    with pytest.raises(ImportError):
        exec(f"from acgl import {name}", {})
    assert hasattr(importlib.import_module(f"acgl.{module}"), name)


def test_analytic_declares_no_second_surface():
    assert not hasattr(analytic, "__all__")


def _features(X):
    return Graph(edges=np.zeros((0, 2), dtype=np.int64), features=X,
                 labels=np.zeros(3, dtype=np.int64), split=np.zeros(3, dtype=np.int64),
                 num_classes=1).features


KEEPERS = {
    "Graph.features": _features,
    "SessionBatch.features": lambda X: SessionBatch(X, np.ones((3, 1))).features,
    "AnalyticState.weights": lambda X: AnalyticState(weights=X, R=np.eye(3)).weights,
    "ExpanderParams.weight": lambda X: ExpanderParams(weight=X).weight,
}


@pytest.mark.parametrize("keep", KEEPERS.values(), ids=KEEPERS.keys())
def test_a_kept_array_is_frozen_and_a_copied_one_is_not(keep):
    X = np.arange(6.0).reshape(3, 2)  # C-contiguous float64: kept as it is
    held = keep(X)
    assert held is X and not X.flags.writeable
    F = np.asfortranarray(np.arange(6.0).reshape(3, 2))  # Fortran order: copied
    held = keep(F)
    assert held is not F and not np.shares_memory(held, F)
    assert F.flags.writeable and not held.flags.writeable
    assert held.tobytes() == np.arange(6.0).tobytes()
