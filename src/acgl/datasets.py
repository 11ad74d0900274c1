"""On-disk dataset format, version 3: load, save, validate.

A dataset directory contains five files:

    edges.npy      (E, 2) int64, one edge per row, two node ids
    features.npy   (N, d) float64, row i for node i
    labels.npy     (N,) int64, the class id of each node, in [0, C)
    split.npy      (N,) int64, the split code of each node, an index into SPLIT_CODES
    meta.json      {"format_version": 3, "num_nodes": N, "num_features": d, "num_classes": C}

Each file is the :class:`~acgl.graph.Graph` field of its name. Every array is
numpy's ``.npy`` format, read by one rule (:func:`_read_array`) and
round-tripped bit for bit. Big-endian or Fortran-ordered arrays are accepted
(``Graph`` copies them to native, C-ordered arrays); every other dtype, object
arrays, pickles and ``.npz`` archives are rejected. The values are checked by
``Graph`` itself; the loader adds the file name to its error. The ``Graph``
constructor canonicalizes the edges: directed or duplicated edges are
symmetrized and deduplicated, self-loops dropped (they are reintroduced
during normalization).
"""

from __future__ import annotations

import json
import math
import tokenize
from pathlib import Path

import numpy as np

from .graph import SPLIT_CODES, FieldError, Graph, check_node_count

FORMAT_VERSION = 3


class DatasetFormatError(ValueError):
    """A dataset file could not be read or holds a value out of range; the message names it."""


def _existing(path: Path) -> Path:
    if not path.is_file():
        raise DatasetFormatError(f"{path}: missing dataset file")
    return path


# numpy's .npy header readers by version. A corrupt header raises ValueError, or (numpy
# 2.4) TokenError, SyntaxError or TypeError from its Python 2 filter, descr and key checks.
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_array(path: Path, kind: str, shape: tuple) -> np.ndarray:
    """The array of the ``.npy`` file ``path``: 8-byte ``kind`` ("i" or "f") of ``shape``.

    A ``None`` in ``shape`` is any length. The array keeps the file's byte order and
    layout. Header and file size are checked before any allocation; nothing is unpickled.
    """
    with _existing(path).open("rb") as f:
        try:
            found, fortran_order, dtype = _NPY_HEADERS[np.lib.format.read_magic(f)](f)
        except (KeyError, ValueError, tokenize.TokenError, SyntaxError, TypeError):
            raise DatasetFormatError(f"{path}: not a .npy array, or its header is corrupt") from None
        if (dtype.kind, dtype.itemsize) != (kind, 8) or len(found) != len(shape) or \
                any(s not in (None, m) for s, m in zip(shape, found)):
            want = str(shape).replace("None", "E")
            raise DatasetFormatError(f"{path}: {dtype.str} array of shape {found}, expected "
                                     f"{np.dtype(kind + '8')} of shape {want}")
        count = math.prod(found)
        if path.stat().st_size - f.tell() != count * 8:
            raise DatasetFormatError(f"{path}: the data after the header is not {count * 8} bytes")
        return np.fromfile(f, dtype=dtype, count=count).reshape(
            found, order="F" if fortran_order else "C")


def load_dataset(path) -> Graph:
    """Load a dataset directory into a validated :class:`Graph`; an empty path is refused."""
    if not str(path):  # Path("") is the working directory
        raise DatasetFormatError("dataset path is empty")
    root = Path(path)
    meta_path = _existing(root / "meta.json")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:   # not UTF-8; nesting or int digits past limits
        raise DatasetFormatError(f"{meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    version = meta.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DatasetFormatError(
            f"{meta_path}: format_version {version!r}, expected {FORMAT_VERSION}; convert a "
            "version 1 or 2 directory with convert_to_v3 from README.md's Dataset format section")
    for key in ("num_nodes", "num_features", "num_classes"):
        if key not in meta:
            raise DatasetFormatError(f"{meta_path}: missing key {key!r}")
        if type(meta[key]) is not int or meta[key] <= 0:
            raise DatasetFormatError(f"{meta_path}: {key} must be a positive integer")
    n, d, c = meta["num_nodes"], meta["num_features"], meta["num_classes"]
    check_node_count(n)  # before features.npy's shape is checked against it

    try:
        return Graph(edges=_read_array(root / "edges.npy", "i", (None, 2)),
                     features=_read_array(root / "features.npy", "f", (n, d)),
                     labels=_read_array(root / "labels.npy", "i", (n,)),
                     split=_read_array(root / "split.npy", "i", (n,)), num_classes=c)
    except FieldError as exc:
        raise DatasetFormatError(f"{root / exc.field}.npy: {exc.rule}") from None


def save_dataset(graph: Graph, path) -> None:
    """Write ``graph`` to a dataset directory (created if absent).

    ``load_dataset(save_dataset(g)) == g`` holds bit for bit: each array is
    written as it is held, native and C-ordered, with ``np.save``.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for name in ("edges", "features", "labels", "split"):
        np.save(root / f"{name}.npy", getattr(graph, name), allow_pickle=False)

    meta = {
        "format_version": FORMAT_VERSION,
        "num_nodes": graph.num_nodes,
        "num_features": graph.feature_dim,
        "num_classes": graph.num_classes,
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def dataset_summary(graph: Graph) -> dict:
    """Human-facing statistics used by the CLI validator."""
    counts = np.bincount(graph.split, minlength=len(SPLIT_CODES)).tolist()
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_features": graph.feature_dim,
        "num_classes": graph.num_classes,
        **{f"{code}_nodes": count for code, count in zip(SPLIT_CODES[:3], counts)},
    }
