"""The helper thread: a second core for the library's large products.

This module is the one place that says which products are split. Each BLAS
call runs on one thread; a split product runs its first part on the calling
thread and its second on one helper thread kept for the process (:func:`run_pair`):

- :func:`split_matmul`, as two row halves: the backbone's ``X @ W0``
  (forward) and ``adj_X.T @ d_z0`` (backward), the expander's
  ``relu(H @ W)``, each task's scores ``X @ W`` in ``analytic.predict``,
  and the weight step's ``X @ W`` and right-hand side ``X^T [-X W, Y]``,
  the base's ``X_0^T Y_0`` among them;
- :func:`split_gram`, every analytic Gram (the base's ``X_0^T X_0``, and
  ``R^T R`` and ``X^T X`` of a session of n >= d rows), as an upper-left
  tile (one syrk) and its right block column (one gemm);
- :func:`split_tpqrt`, the QR update of a session of n < d rows: LAPACK
  tpqrt's own panel loop, its input copies and each panel's reflector
  update as two column halves.

One size rule decides every cut: a product is cut only where each part
does more than :data:`SMALL_GEMM_MADDS` multiply-adds, at a multiple of
:data:`SPLIT_ROW_BLOCK` rows or columns, and a cut product always runs its
second part on the helper. A Gram is always tiled; its block column runs
on the helper under the same rule, else after the tile on the calling
thread. Which thread runs a part never changes a byte: each split gives
the bytes of one call, and a Gram those of its tile and column in turn.

The helper runs numpy products, element-wise ufuncs and LAPACK routines
that release the GIL. scipy's f2py BLAS and LAPACK wrappers hold it, so two
of their calls on two threads take as long as two in turn. So the QR path
calls scipy's LAPACK through the ``nogil`` C functions of
``scipy.linalg.cython_lapack``, bound here by ctypes (:func:`_lapack`);
``potrf`` and ``cho_solve`` stay on the calling thread. A helper task never
submits to the helper, which has one worker and would deadlock.

Importing acgl with no thread variable set runs :func:`pin_openblas` over :func:`loaded_openblas`.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg.cython_lapack

# A split row or Gram tile edge is a multiple of this. With OpenBLAS 0.3.31's
# SkylakeX kernel every split at a multiple of 12 rows kept every bit; other
# splits changed the last bits of the trailing columns when the column count
# was not a multiple of 16. 48 is also a multiple of 8 and 16.
SPLIT_ROW_BLOCK = 48
# Each part of a cut product must do more multiply-adds than this: OpenBLAS
# may take a product of at most 10**6 through a small-matrix kernel that
# rounds differently from the blocked one. A cut product always hands its
# second part to the helper thread (about 40 us), so from about 2M in all.
# Split at one BLAS thread (2 vCPU, OpenBLAS 0.3.31), 200x64x128 (1.6M)
# went 0.09 -> 0.15 ms, 500x128x64 (4.1M) 0.22 -> 0.21 ms and 1000x128x64
# (8.2M) 0.45 -> 0.26 ms; the tiled Gram broke even between 0.5M and 1M. So
# a Gram from 2M gains a little. The narrow score products gain from 2.6M:
# 312x2048x4 went 0.45 -> 0.33 ms and 500x1024x5 0.45 -> 0.29 ms.
SMALL_GEMM_MADDS = 1_000_000
# A Gram's tile spans about this share of its d columns: alone, its syrk and
# the block column's gemm took 47 and 54 ms at 6000 x 1024, 35 and 31 ms at
# 929 x 2048 (one BLAS thread, 2 vCPU, OpenBLAS 0.3.31); 0.65-0.76 d was best.
GRAM_TILE_SHARE = 0.707
# Columns per reflector panel of the QR update, LAPACK tpqrt's block size.
_QR_BLOCK = 32

# Bound here rather than through ctypes.pythonapi's shared attributes, whose
# restype another module may set.
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def loaded_openblas() -> list[tuple[str, ctypes.CDLL, str | None]]:
    """(path, library, suffix) of each OpenBLAS this process has loaded, from ``/proc/self/maps``;
    the suffix of its ``scipy_openblas_*`` exports is ``"64_"`` (numpy's), ``""`` (scipy's) or
    None. A path ctypes cannot open is left out; an unreadable maps file gives an empty list."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        known = [s for s in ("64_", "") if hasattr(lib, f"scipy_openblas_set_num_threads{s}")]
        found.append((path, lib, known[0] if known else None))
    return found


def pin_openblas() -> None:
    """Set each OpenBLAS of :func:`loaded_openblas` whose suffix is known to one thread: an
    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, so one that numpy loaded
    before acgl was imported keeps the count it chose then."""
    for _, lib, suffix in loaded_openblas():
        if suffix is not None:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


@functools.cache
def _helper_thread(pid: int) -> ThreadPoolExecutor:
    """One helper thread per process, started by its first task.

    Keyed on the process id because a forked child inherits the executor
    but not its thread.
    """
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="acgl-matmul")


def run_pair(here, there) -> None:
    """Call ``here()`` on the calling thread and ``there()`` on the helper thread.

    The two must write disjoint outputs. The caller's ``np.errstate`` also
    governs ``there``, and the helper is joined before this returns or
    raises: an error of either is raised here.
    """
    # np.errstate does not reach another thread, so the caller's is applied there.
    second = _helper_thread(os.getpid()).submit(np.errstate(**np.geterr())(there))
    try:
        here()
    finally:
        second.result()  # waits for the helper's part and raises its error


def _cut(length: int, madds_per_unit: int) -> int | None:
    """The multiple of :data:`SPLIT_ROW_BLOCK` nearest half of ``length`` rows or columns of
    ``madds_per_unit`` multiply-adds each; None if a half would do <= SMALL_GEMM_MADDS."""
    h = SPLIT_ROW_BLOCK * round(length / (2 * SPLIT_ROW_BLOCK))
    return None if min(h, length - h) * madds_per_unit <= SMALL_GEMM_MADDS else h


def _product(A: np.ndarray, B: np.ndarray, out: np.ndarray, relu: bool) -> None:
    np.matmul(A, B, out=out)
    if relu:
        np.maximum(out, 0.0, out=out)


def split_matmul(A: np.ndarray, B: np.ndarray, relu: bool = False) -> np.ndarray:
    """``A @ B``, or ``relu(A @ B)`` with ``relu``, bit for bit, with its lower rows on the helper.

    Each half, or the whole product where the size rule leaves it whole, is
    one BLAS call (and one in-place ReLU) written into one output.
    """
    rows, inner = A.shape
    cols = B.shape[1]
    # No product of at most twice the floor has two halves above it; testing
    # that first keeps a small product within about 0.4 us of a bare A @ B.
    if rows * inner * cols <= 2 * SMALL_GEMM_MADDS or (h := _cut(rows, inner * cols)) is None:
        out = A @ B
        if relu:
            np.maximum(out, 0.0, out=out)
        return out
    out = np.empty((rows, cols), dtype=np.result_type(A, B))
    run_pair(functools.partial(_product, A[:h], B, out[:h], relu),
             functools.partial(_product, A[h:], B, out[h:], relu))
    return out


def split_gram(X: np.ndarray) -> np.ndarray:
    """The upper triangle of ``X.T @ X`` in Fortran order, for LAPACK potrf.

    The upper-left (h, h) tile is one syrk and the right block column
    ``X.T @ X[:, h:]`` one gemm, both into one buffer, h a multiple of
    :data:`SPLIT_ROW_BLOCK` near :data:`GRAM_TILE_SHARE` d. The lower-left
    block stays zero.
    """
    n, d = X.shape
    gram = np.zeros((d, d), order="F")
    h = min(SPLIT_ROW_BLOCK * round(GRAM_TILE_SHARE * d / SPLIT_ROW_BLOCK), d) or d
    tile = functools.partial(np.matmul, X[:, :h].T, X[:, :h], out=gram[:h, :h])
    column = functools.partial(np.matmul, X.T, X[:, h:], out=gram[:, h:])
    if min(n * h * h / 2, n * d * (d - h)) > SMALL_GEMM_MADDS:  # a syrk does n h^2 / 2
        run_pair(tile, column)
    else:
        tile()
        column()
    return gram


@functools.cache
def _lapack(name: str):
    """scipy's LAPACK routine ``name``, called through ctypes without the GIL.

    ``scipy.linalg.cython_lapack`` exports each routine's ``nogil`` C
    function as a capsule whose name is its C signature. Every argument is
    a pointer: an array's address, :func:`_int` for an integer, one-letter
    bytes for a character. The call releases the GIL and runs scipy's own
    LAPACK and OpenBLAS, the ones ``scipy.linalg.lapack`` calls. A routine
    scipy does not export raises RuntimeError naming it.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__.get(name)
    if capsule is None:
        raise RuntimeError(f"scipy.linalg.cython_lapack exports no LAPACK routine {name}")
    signature = _capsule_name(capsule)
    argtypes = [ctypes.c_void_p] * signature.count(b"*")
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, signature))


def _int(value: int):
    """A pointer to a fresh C int holding ``value``."""
    return ctypes.byref(ctypes.c_int(value))


def split_tpqrt(R_prev: np.ndarray, Xn: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK dtpqrt's R of ``[R_prev; Xn]`` and info, bit for bit, each panel update in halves.

    ``R_prev`` is (d, d) upper triangular, ``Xn`` (n, d); neither is
    written. This is dtpqrt's own loop (L = 0, NB = min(32, d)) run in one
    Fortran copy of each, copied as two column halves. Each panel of NB
    columns is one dtpqrt2, and its block reflector is applied to the
    trailing columns by two dtprfb calls on column halves, cut counted from
    the panel's end. From the first panel the size rule leaves whole, the
    trailing block is one dtpqrt call, which makes the same panel calls.
    Returns the new factor in Fortran order and the first nonzero info,
    else 0. Shapes other than these raise ValueError before LAPACK sees a
    pointer.
    """
    d = np.shape(R_prev)[0] if np.ndim(R_prev) else 0
    if d == 0 or np.shape(R_prev) != (d, d) or np.shape(Xn)[1:] != (d,):
        raise ValueError(f"split_tpqrt needs a (d, d) R_prev and an (n, d) Xn with d >= 1: "
                         f"shapes {np.shape(R_prev)} and {np.shape(Xn)}")
    R_prev, Xn = np.asarray(R_prev, dtype=np.float64), np.asarray(Xn, dtype=np.float64)
    n = Xn.shape[0]
    nb = min(_QR_BLOCK, d)
    lda, ldb = d, max(1, n)
    A = np.empty((d, d), order="F")
    B = np.empty((n, d), order="F")

    def copy(lo: int, hi: int) -> None:
        """Copy columns lo:hi of R_prev into A and of Xn into B."""
        A[:, lo:hi] = R_prev[:, lo:hi]
        B[:, lo:hi] = Xn[:, lo:hi]

    if (h := _cut(d, d + n)) is None:
        copy(0, d)
    else:
        run_pair(functools.partial(copy, 0, h), functools.partial(copy, h, d))
    T = np.empty((nb, d), order="F")
    work = np.empty((2, nb * d))  # one per half; the helper's half never shares the caller's

    def reflect(i: int, lo: int, hi: int, half: int) -> None:
        """Apply panel i's block reflector to columns lo:hi of A and B."""
        _lapack("dtprfb")(b"L", b"T", b"F", b"C", _int(n), _int(hi - lo), _int(nb), _int(0),
                          B[:, i:].ctypes.data, _int(ldb), T[:, i:].ctypes.data, _int(nb),
                          A[i:, lo:].ctypes.data, _int(lda), B[:, lo:].ctypes.data, _int(ldb),
                          work[half].ctypes.data, _int(nb))

    info = ctypes.c_int(0)
    i = 0
    while i + nb < d:
        rest = d - i - nb
        if (h := _cut(rest, n * nb)) is None:
            break
        _lapack("dtpqrt2")(_int(n), _int(nb), _int(0), A[i:, i:].ctypes.data, _int(lda),
                           B[:, i:].ctypes.data, _int(ldb), T[:, i:].ctypes.data, _int(nb),
                           ctypes.byref(info))
        if info.value:
            return A, info.value
        # A, B, T and work stay referenced here until run_pair has joined the helper.
        run_pair(functools.partial(reflect, i, i + nb, i + nb + h, 0),
                 functools.partial(reflect, i, i + nb + h, d, 1))
        i += nb
    _lapack("dtpqrt")(_int(n), _int(d - i), _int(0), _int(nb), A[i:, i:].ctypes.data, _int(lda),
                      B[:, i:].ctypes.data, _int(ldb), T[:, i:].ctypes.data, _int(nb),
                      work[0].ctypes.data, ctypes.byref(info))
    return A, info.value
