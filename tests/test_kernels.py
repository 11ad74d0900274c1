"""Under each OpenBLAS kernel this CPU can run, the split products give the bytes of one call.

OpenBLAS picks its kernel when it loads, and ``OPENBLAS_CORETYPE`` overrides
the pick, so each kernel is checked in a child process of its own. The child
runs this file as a script: at the shapes the configs and the benchmark's
workloads run, it checks ``split_matmul`` against one ``A @ B``, ``split_gram``
with its block column on the helper against its tile and column in turn, and
``split_tpqrt`` against one ``dtpqrt`` call, and reports the kernel that each
loaded OpenBLAS names.
"""

import ctypes
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acgl import threads

from conftest import child_env

# Each kernel: the /proc/cpuinfo flag it needs, and the name OpenBLAS reports for
# it. An x86-64 OpenBLAS reports its Prescott kernel as Katmai, an alias it checks
# first.
KERNELS = {"SkylakeX": ("avx512f", "SkylakeX"), "Haswell": ("avx2", "Haswell"),
           "Sandybridge": ("avx", "Sandybridge"), "Prescott": ("pni", "Katmai")}
# (rows, inner, cols, relu) of split_matmul. cora.cfg on the cora_csv graph: the
# base's backbone forward and backward, its expansion and right-hand side, the
# base task's scores, a session's X @ W and right-hand side. big_sessions: the
# backbone forward, a session's expansion and right-hand side, a task's scores.
# stream40: a session's expansion.
MATMULS = [(1548, 1433, 256, False), (1433, 1548, 256, False), (1241, 256, 2048, True),
           (2048, 929, 4, False), (312, 2048, 4, False), (232, 2048, 6, False),
           (2048, 232, 5, False), (10000, 128, 64, False), (2000, 64, 1024, True),
           (1024, 1500, 5, False), (500, 1024, 5, False), (80, 128, 512, True)]
# (n, d) of split_gram: cora.cfg's base, a big_sessions session, stream40's base.
GRAMS = [(929, 2048), (1500, 1024), (60, 512)]
# (d, n) of split_tpqrt: a cora.cfg session.
TPQRTS = [(2048, 232)]


def corenames() -> list[str]:
    """The kernel that each OpenBLAS loaded in this process reports."""
    names = []
    for _, lib, suffix in threads.loaded_openblas():
        if suffix is not None:
            getter = getattr(lib, f"scipy_openblas_get_corename{suffix}")
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            names.append(getter().decode())
    return names


def cases(rng):
    """(name, call) of each split product, on random operands drawn once."""
    for rows, inner, cols, relu in MATMULS:
        A, B = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
        yield f"split_matmul{rows, inner, cols}", \
            lambda A=A, B=B, relu=relu: threads.split_matmul(A, B, relu)
    for n, d in GRAMS:
        X = rng.normal(size=(n, d))
        yield f"split_gram{n, d}", lambda X=X: threads.split_gram(X)
    for d, n in TPQRTS:
        R = np.asfortranarray(np.triu(rng.normal(size=(d, d))) + 5 * np.eye(d))
        X = rng.normal(size=(n, d))
        yield f"split_tpqrt{d, n}", lambda R=R, X=X: threads.split_tpqrt(R, X)[0]


def check() -> dict:
    """The loaded kernels' names, the cases that handed nothing to the helper, and the
    cases whose bytes differ from the one-call reference."""
    handoffs = []
    run_pair = threads.run_pair
    threads.run_pair = lambda here, there: handoffs.append(1) or run_pair(here, there)
    floor, uncut, moved = threads.SMALL_GEMM_MADDS, [], []
    for name, call in cases(np.random.default_rng(0)):
        threads.SMALL_GEMM_MADDS = math.inf  # nothing is cut: the one-call reference
        want = call().tobytes()
        threads.SMALL_GEMM_MADDS = floor
        before = len(handoffs)
        got = call().tobytes()
        if len(handoffs) == before:
            uncut.append(name)
        if got != want:
            moved.append(name)
    return {"cores": corenames(), "uncut": uncut, "moved": moved}


def cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split()[2:]}


@pytest.fixture(scope="module")
def children():
    """One child process running this file per kernel this CPU can run, all started at once."""
    flags = cpu_flags()
    procs = {kernel: subprocess.Popen([sys.executable, __file__], text=True,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      env=child_env(OPENBLAS_CORETYPE=kernel))
             for kernel, (flag, _) in KERNELS.items() if flag in flags}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("kernel", KERNELS)
def test_split_products_keep_every_bit_under_each_kernel(children, kernel):
    flag, reported = KERNELS[kernel]
    if kernel not in children:
        pytest.skip(f"/proc/cpuinfo shows no {flag}, which the {kernel} kernel needs")
    out, err = children[kernel].communicate(timeout=300)
    assert children[kernel].returncode == 0, err
    result = json.loads(out)
    if set(result["cores"]) != {reported}:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} loaded the kernels {result['cores']}")
    assert result["uncut"] == []
    assert result["moved"] == []


if __name__ == "__main__":
    print(json.dumps(check()))
