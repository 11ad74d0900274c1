"""Importing acgl pins BLAS to one thread unless the caller chose a count."""

import os
import subprocess
import sys
from pathlib import Path

import acgl

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(acgl.__file__).resolve().parents[1])


def thread_vars_after_import(**preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import os, sys, acgl; assert 'numpy' in sys.modules; "
            f"print(','.join(os.environ.get(v, '-') for v in {THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().split(",")


def test_unset_thread_variables_default_to_one():
    assert thread_vars_after_import() == ["1", "1", "1"]


def test_explicit_thread_count_is_kept():
    assert thread_vars_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
