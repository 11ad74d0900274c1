"""The benchmark's span probe on a real CLI run: every wrapped call site is hit.

``perfbench/tracing.py`` replaces the module attributes acgl calls through
and checks the call counts against the session plan. Running it here makes
a refactor that bypasses one of those call sites fail the test suite, not
only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

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


def test_synthetic_config_hits_every_wrapped_call_site(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    experiment = cfgmod.build_experiment(cfgmod.load_config(CONFIG))
    with tracing.RunProbe() as probe:
        code = main(["run", "--config", str(CONFIG), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert probe.coverage_problems(experiment) == []
    assert probe.joint_rel_err() <= 1e-8
