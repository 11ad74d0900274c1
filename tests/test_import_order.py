"""A run's bits do not depend on whether numpy was imported before acgl.

An OpenBLAS reads its thread variable once, when it loads, so numpy imported
first starts its own count; importing acgl must still leave every loaded
OpenBLAS on one thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acgl

SRC = str(Path(acgl.__file__).resolve().parents[1])
# A Cora-shaped run (7 x 387 nodes, 1433 features, d = 2048): wide enough that a
# two-thread OpenBLAS threads its products and moves the last bits of W and R.
RUN = """
import sys
if sys.argv[1] == "numpy":
    import numpy
import ctypes, hashlib
import acgl
from acgl import BackboneConfig, ExpanderConfig, ExperimentConfig, SyntheticSpec, run_experiment

result = run_experiment(ExperimentConfig(
    synthetic=SyntheticSpec(classes=7, nodes_per_class=387, features=1433, homophily=0.8,
                            class_sep=0.05),
    c0=4, k=1, backbone=BackboneConfig(hidden=256, epochs=5, lr=1e-3),
    expander=ExpanderConfig(dim=2048), seed=3))
with open("/proc/self/maps", encoding="utf-8") as maps:
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
threads = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            threads.append(getattr(lib, name)())
print(hashlib.sha256(result.state.weights.tobytes()).hexdigest(),
      hashlib.sha256(result.state.R.tobytes()).hexdigest(), threads)
"""


def run_importing_first(module: str) -> tuple[str, str, list[int]]:
    """(W's hash, R's hash, each loaded OpenBLAS's thread count) of the run in a child
    process that imports ``module`` first, with no thread variable set."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", RUN, module], env=env, check=True,
                         capture_output=True, text=True).stdout
    w, r, threads = out.split(" ", 2)
    return w, r, json.loads(threads)


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads /proc/self/maps")
def test_both_import_orders_give_the_same_bits_on_one_thread():
    numpy_first = run_importing_first("numpy")
    acgl_first = run_importing_first("acgl")
    assert numpy_first[:2] == acgl_first[:2]
    for _, _, threads in (numpy_first, acgl_first):
        assert threads and set(threads) == {1}, threads
