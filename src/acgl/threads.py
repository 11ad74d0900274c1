"""The helper thread: a second core for the library's large numpy products.

Each BLAS call runs on one thread. A product large enough to pay for the
hand-off is cut into two parts that give the same bytes however they are
scheduled: from :data:`SPLIT_MADDS` multiply-adds on, one part runs on the
calling thread and the other on one helper thread kept for the process;
below it both run on the calling thread. :func:`split_matmul` cuts the
backbone's and the expander's products into row halves, :func:`split_gram`
each analytic Gram into a tile and a block column.

Only numpy products and element-wise ufuncs run on the helper. numpy
releases the GIL around them, while scipy's f2py BLAS and LAPACK wrappers
hold it: on 2 vCPU, two concurrent ``scipy.linalg.blas.dsyrk`` calls of a
3000 x 1024 matrix took as long as two in turn (0.97-0.99x), while two
numpy ``A.T @ A`` calls overlapped 1.7-1.8x. So ``potrf``, ``tpqrt`` and
``cho_solve`` stay on the calling thread. A helper task never
submits to the helper, which has one worker and would deadlock.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# A product is split into two parts only from this many multiply-adds on.
# Handing a part to the helper thread costs about 40 us, so smaller
# products lose. Split at one BLAS thread (2 vCPU, OpenBLAS 0.3.31),
# 200x64x128 (1.6M) went 0.09 -> 0.15 ms, 500x128x64 (4.1M) 0.22 -> 0.21 ms
# and 1000x128x64 (8.2M) 0.45 -> 0.26 ms. The tiled Gram breaks even lower,
# between 0.5M and 1M, and gains at most 0.02 ms below 4M.
SPLIT_MADDS = 4_000_000
# A split row or Gram tile edge is a multiple of this. With OpenBLAS 0.3.31's
# SkylakeX kernel every split at a multiple of 12 rows kept every bit; other
# splits changed the last bits of the trailing columns when the column count
# was not a multiple of 16. 48 is also a multiple of 8 and 16.
SPLIT_ROW_BLOCK = 48
# Each half of a split product must do more multiply-adds than this,
# whatever SPLIT_MADDS is. OpenBLAS may take a product of at most 10**6 of
# them through a small-matrix kernel that rounds differently from the
# blocked one, so a half that small could differ from the one-call product
# in the last bit.
SMALL_GEMM_MADDS = 1_000_000
# A Gram's tile spans about this share of its d columns: alone, its syrk and
# the block column's gemm took 47 and 54 ms at 6000 x 1024, 35 and 31 ms at
# 929 x 2048 (one BLAS thread, 2 vCPU, OpenBLAS 0.3.31); 0.65-0.76 d was best.
GRAM_TILE_SHARE = 0.707


@functools.cache
def _helper_thread(pid: int) -> ThreadPoolExecutor:
    """One helper thread per process, started by its first task.

    Keyed on the process id because a forked child inherits the executor
    but not its thread.
    """
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="acgl-matmul")


def run_pair(here, there, madds: float) -> None:
    """Call ``here()`` and ``there()``, ``there`` on the helper thread from ``madds`` on.

    ``madds`` is the pair's multiply-adds. Below :data:`SPLIT_MADDS` both
    run on the calling thread, ``here`` first; the two must write disjoint
    outputs, so the bytes are the same either way. The caller's
    ``np.errstate`` also governs ``there``, and the helper is joined before
    this returns or raises: an error of either is raised here.
    """
    if madds < SPLIT_MADDS:
        here()
        there()
        return
    # np.errstate does not reach another thread, so the caller's is applied there.
    second = _helper_thread(os.getpid()).submit(np.errstate(**np.geterr())(there))
    try:
        here()
    finally:
        second.result()  # waits for the helper's part and raises its error


def _product(A: np.ndarray, B: np.ndarray, out: np.ndarray, relu: bool) -> None:
    np.matmul(A, B, out=out)
    if relu:
        np.maximum(out, 0.0, out=out)


def split_matmul(A: np.ndarray, B: np.ndarray, relu: bool = False) -> np.ndarray:
    """``A @ B``, or ``relu(A @ B)`` with ``relu``, bit for bit, with its lower rows on the helper.

    Each half is one BLAS call (and one in-place ReLU) written into one
    output, so the BLAS thread count is untouched. A product below
    :data:`SPLIT_MADDS`, or whose halves would fall to OpenBLAS's
    small-matrix kernel, is one call on the calling thread.
    """
    rows, inner = A.shape
    cols = B.shape[1]
    out = np.empty((rows, cols), dtype=np.result_type(A, B))
    h = SPLIT_ROW_BLOCK * round(rows / (2 * SPLIT_ROW_BLOCK))
    madds = rows * inner * cols
    if madds < SPLIT_MADDS or min(h, rows - h) * inner * cols <= SMALL_GEMM_MADDS:
        _product(A, B, out, relu)
    else:
        run_pair(functools.partial(_product, A[:h], B, out[:h], relu),
                 functools.partial(_product, A[h:], B, out[h:], relu), madds)
    return out


def split_gram(X: np.ndarray) -> np.ndarray:
    """The upper triangle of ``X.T @ X`` in Fortran order, for LAPACK potrf.

    The upper-left (h, h) tile is one syrk here and the right block column
    ``X.T @ X[:, h:]`` one gemm on the helper, both into one buffer
    allocated here, h a multiple of :data:`SPLIT_ROW_BLOCK` near
    :data:`GRAM_TILE_SHARE` d. The lower-left block stays zero.
    """
    n, d = X.shape
    gram = np.zeros((d, d), order="F")
    h = min(SPLIT_ROW_BLOCK * round(GRAM_TILE_SHARE * d / SPLIT_ROW_BLOCK), d) or d
    run_pair(functools.partial(np.matmul, X[:, :h].T, X[:, :h], out=gram[:h, :h]),
             functools.partial(np.matmul, X.T, X[:, h:], out=gram[:, h:]), n * d * d / 2)
    return gram
