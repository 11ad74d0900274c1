"""A run's bits do not depend on whether numpy was imported before acgl.

An OpenBLAS reads its thread variable once, when it loads, so numpy imported
first starts its own count; importing acgl must still leave every loaded
OpenBLAS on one thread.
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
import sys
if sys.argv[1] == "numpy":
    import numpy
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


def run_importing_first(module: str) -> tuple[str, str, list]:
    """(W's hash, R's hash, each loaded OpenBLAS's name, suffix and thread count) of the run
    in a child process that imports ``module`` first, with no thread variable set."""
    out = subprocess.run([sys.executable, "-c", RUN, module], env=child_env(acgl._THREAD_VARS),
                         check=True, capture_output=True, text=True).stdout
    w, r, blas = out.split(" ", 2)
    return w, r, json.loads(blas)


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads /proc/self/maps")
def test_both_import_orders_give_the_same_bits_on_one_thread():
    numpy_first = run_importing_first("numpy")
    acgl_first = run_importing_first("acgl")
    assert numpy_first[:2] == acgl_first[:2]
    # Every OpenBLAS in the maps file has exports the pin knows, and it set each to one
    # thread: here numpy's libscipy_openblas64_ ("64_") and scipy's libscipy_openblas ("").
    for _, _, blas in (numpy_first, acgl_first):
        assert blas and all(suffix in ("64_", "") and count == 1
                            for _, suffix, count in blas), blas
