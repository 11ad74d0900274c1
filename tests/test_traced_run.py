"""The benchmark's span probe on a real CLI run: every wrapped call site is hit.

``perfbench/tracing.py`` replaces the module attributes acgl calls through
and checks the call counts against the session plan, and its per-layer
metrics read the final state. Running it here makes a refactor that
bypasses one of those call sites, or changes what the readers read, fail
the test suite, not only the benchmark.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from acgl import config as cfgmod
from acgl.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "synthetic.cfg"


def load_tracing(monkeypatch):
    """Import perfbench/tracing.py read-only, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


# The config's sessions have fewer train rows than d = 64 and take
# update_R's tpqrt path; 120 nodes per class give 72 train rows per session,
# more than d, which take its Gram path. The ids are the labels perfbench
# gives the two cases, split at the same n vs d.
# One-class base and sessions are the shape of perfbench's stream40. The
# default base size of an odd class count is where rounding up and down differ
# (3 of 5 against 2), so that case checks perfbench's copy of the rule.
@pytest.mark.parametrize("overrides", [
    pytest.param([], id="woodbury"),
    pytest.param(["synthetic.nodes_per_class=120"], id="direct"),
    pytest.param(["plan.base_classes=1", "plan.increment=1"], id="one_class_sessions"),
    pytest.param(["synthetic.classes=5", "plan.base_classes=0"], id="default_base"),
])
def test_synthetic_config_hits_every_wrapped_call_site(tmp_path, monkeypatch, overrides):
    tracing = load_tracing(monkeypatch)
    experiment = cfgmod.build_experiment(
        cfgmod.apply_overrides(cfgmod.load_config(CONFIG), overrides))
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    with tracing.RunProbe() as probe:
        code = main(["run", "--config", str(CONFIG), "--out", str(tmp_path / "out"), *sets])
    assert code == EXIT_OK
    assert probe.coverage_problems(experiment) == []
    assert probe.joint_rel_err() <= 1e-8
    metrics = probe.layer_metrics()
    assert metrics and all(math.isfinite(v) for v in metrics.values())
