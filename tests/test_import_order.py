"""A run's bits do not depend on whether numpy or scipy was imported before acgl.

An OpenBLAS reads its thread variable once, when it loads, so numpy or scipy
imported first starts its own count; importing acgl must still leave every
loaded OpenBLAS on one thread.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import acgl

from conftest import child_env

# A Cora-shaped run (7 x 387 nodes, 1433 features, d = 2048): wide enough that a
# two-thread OpenBLAS threads its products and moves the last bits of W and R.
RUN = """
import importlib, sys
importlib.import_module(sys.argv[1])
import hashlib, json
import acgl
from acgl import BackboneConfig, ExpanderConfig, ExperimentConfig, SyntheticSpec, run_experiment

result = run_experiment(ExperimentConfig(
    synthetic=SyntheticSpec(classes=7, nodes_per_class=387, features=1433, homophily=0.8,
                            class_sep=0.05),
    c0=4, k=1, backbone=BackboneConfig(hidden=256, epochs=5, lr=1e-3),
    expander=ExpanderConfig(dim=2048), seed=3))
# Each OpenBLAS mapped in: its file name, its exports' suffix and, where the pin knows
# that suffix, its thread count.
blas = [(path.rsplit("/", 1)[-1], suffix,
         None if suffix is None else getattr(lib, f"scipy_openblas_get_num_threads{suffix}")())
        for path, lib, suffix in acgl.threads.loaded_openblas()]
print(hashlib.sha256(result.state.weights.tobytes()).hexdigest(),
      hashlib.sha256(result.state.R.tobytes()).hexdigest(), json.dumps(blas))
"""


def start_importing_first(module: str) -> subprocess.Popen:
    """The run in a child process that imports ``module`` first, with no thread variable set."""
    return subprocess.Popen([sys.executable, "-c", RUN, module], env=child_env(acgl._THREAD_VARS),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(child: subprocess.Popen) -> tuple[str, str, list]:
    """(W's hash, R's hash, each loaded OpenBLAS's name, suffix and thread count) of ``child``."""
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    w, r, blas = out.split(" ", 2)
    return w, r, json.loads(blas)


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads /proc/self/maps")
def test_both_import_orders_give_the_same_bits_on_one_thread():
    # numpy first, scipy first and acgl first, all started at once. Only scipy first shows
    # in the bits a pin that misses scipy's OpenBLAS.
    children = [start_importing_first(module) for module in ("numpy", "scipy.linalg", "acgl")]
    try:
        runs = [finish(child) for child in children]
    finally:
        for child in children:
            child.kill()
            child.communicate()
    assert len({run[:2] for run in runs}) == 1
    # Every OpenBLAS in the maps file has exports the pin knows, and it set each to one
    # thread: here numpy's libscipy_openblas64_ ("64_") and scipy's libscipy_openblas ("").
    for _, _, blas in runs:
        assert blas and all(suffix in ("64_", "") and count == 1
                            for _, suffix, count in blas), blas
