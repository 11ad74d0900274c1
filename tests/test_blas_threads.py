"""Importing acgl pins BLAS to one thread unless the caller chose a count."""

import subprocess
import sys

import acgl

from conftest import child_env


def thread_vars_after_import(**preset):
    code = ("import os, sys, acgl; assert 'numpy' in sys.modules; "
            f"print(','.join(os.environ.get(v, '-') for v in {acgl._THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(acgl._THREAD_VARS, **preset),
                         check=True, capture_output=True, text=True).stdout
    return out.strip().split(",")


def test_unset_thread_variables_default_to_one():
    assert thread_vars_after_import() == ["1", "1", "1"]


def test_explicit_thread_count_is_kept():
    assert thread_vars_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
