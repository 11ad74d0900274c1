"""On-disk dataset format, version 2: load, save, validate.

A dataset directory contains five files:

    edges.csv      one edge per line, two comma-separated integer node ids
    features.npy   the N x d float64 feature matrix, in numpy's .npy format
    labels.csv     N lines, one integer class id per line
    split.csv      N lines, each one of: train, val, test, none
    meta.json      {"format_version": 2, "num_nodes": N, "num_features": d, ...}

Features round-trip bit for bit. Big-endian or Fortran-ordered float64 is
accepted (``Graph`` copies it to native, C-ordered float64); every other
dtype, object arrays, pickles and ``.npz`` archives are rejected. Integers
are read by ``int()``. Edges go through :func:`acgl.graph.canonical_edges`:
directed or duplicated edges are symmetrized and deduplicated, self-loops
dropped (they are reintroduced during normalization).
"""

from __future__ import annotations

import json
import tokenize
from pathlib import Path

import numpy as np

from .graph import Graph, canonical_edges

FORMAT_VERSION = 2

_SPLIT_NAMES = ("train", "val", "test", "none")


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed; message carries file and line."""


def _parse_error(path: Path, line_no: int, detail: str) -> DatasetFormatError:
    return DatasetFormatError(f"{path}:{line_no}: {detail}")


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DatasetFormatError(f"{path}: missing dataset file")
    try:
        with path.open("r", encoding="utf-8") as f:
            return [line.rstrip("\n") for line in f]
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _node_lines(root: Path, name: str, n: int) -> tuple[Path, list[str]]:
    """The path and lines of ``root / name``, a file with one line per node."""
    path = root / name
    lines = _read_lines(path)
    if len(lines) != n:
        raise DatasetFormatError(f"{path}: expected {n} rows, found {len(lines)}")
    return path, lines


# numpy's .npy header readers by version. A corrupt header raises ValueError, or (numpy
# 2.4) TokenError, SyntaxError or TypeError from its Python 2 filter, descr and key checks.
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_features(path: Path, n: int, d: int) -> np.ndarray:
    """The ``n x d`` float64 matrix of the ``.npy`` file ``path``, in its byte order and layout.

    Header and file size are checked before any ``n x d`` allocation; nothing is unpickled.
    """
    if not path.is_file():
        raise DatasetFormatError(f"{path}: missing dataset file")
    with path.open("rb") as f:
        try:
            shape, fortran_order, dtype = _NPY_HEADERS[np.lib.format.read_magic(f)](f)
        except (KeyError, ValueError, tokenize.TokenError, SyntaxError, TypeError):
            raise DatasetFormatError(f"{path}: not a .npy array, or its header is corrupt") from None
        if dtype not in (np.dtype("<f8"), np.dtype(">f8")) or shape != (n, d):
            raise DatasetFormatError(f"{path}: {dtype.str} array of shape {shape}, expected "
                                     f"float64 of shape ({n}, {d}) from meta.json")
        if path.stat().st_size - f.tell() != n * d * 8:
            raise DatasetFormatError(f"{path}: the data after the header is not {n * d * 8} bytes")
        features = np.fromfile(f, dtype=dtype, count=n * d).reshape(
            shape, order="F" if fortran_order else "C")
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        raise DatasetFormatError(f"{path}: non-finite feature in row {np.argmin(finite_rows)}")
    return features


def load_dataset(path) -> Graph:
    """Load a dataset directory into a validated :class:`Graph`."""
    root = Path(path)
    meta_path = root / "meta.json"
    text = "\n".join(_read_lines(meta_path))
    try:
        meta = json.loads(text)
    except (ValueError, RecursionError) as exc:   # nesting or int digits past Python's limits
        raise DatasetFormatError(f"{meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    version = meta.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DatasetFormatError(
            f"{meta_path}: format_version {version!r}, expected {FORMAT_VERSION}; convert with "
            'np.save("features.npy", np.loadtxt("features.csv", delimiter=",", ndmin=2)) '
            f'and "format_version": {FORMAT_VERSION}')
    for key in ("num_nodes", "num_features", "num_classes"):
        if key not in meta:
            raise DatasetFormatError(f"{meta_path}: missing key {key!r}")
        if type(meta[key]) is not int or meta[key] <= 0:
            raise DatasetFormatError(f"{meta_path}: {key} must be a positive integer")
    n, d, c = meta["num_nodes"], meta["num_features"], meta["num_classes"]

    edges_path = root / "edges.csv"
    raw_edges = []
    for i, line in enumerate(_read_lines(edges_path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise _parse_error(edges_path, i, f"expected 2 integer columns, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _parse_error(edges_path, i, f"non-integer edge entry {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise _parse_error(edges_path, i, f"edge ({u}, {v}) out of range for {n} nodes")
        raw_edges.append((u, v))
    edges = canonical_edges(np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2), n)

    features = _read_features(root / "features.npy", n, d)

    label_path, label_lines = _node_lines(root, "labels.csv", n)
    labels = np.empty(n, dtype=np.int64)
    label_end = min(c, np.iinfo(np.int64).max + 1)  # a label must also fit int64
    for i, line in enumerate(label_lines, start=1):
        try:
            label = int(line.strip())
        except ValueError:
            raise _parse_error(label_path, i, f"non-integer label {line!r}") from None
        if not 0 <= label < label_end:  # checked as a Python int, before the int64 store
            raise _parse_error(label_path, i, f"label {label} out of range [0, {label_end})")
        labels[i - 1] = label

    split_path, split_lines = _node_lines(root, "split.csv", n)
    masks = {name: np.zeros(n, dtype=bool) for name in ("train", "val", "test")}
    for i, line in enumerate(split_lines, start=1):
        tag = line.strip()
        if tag not in _SPLIT_NAMES:
            raise _parse_error(split_path, i, f"unknown split tag {tag!r}; expected one of {_SPLIT_NAMES}")
        if tag != "none":
            masks[tag][i - 1] = True

    return Graph(
        edges=edges,
        features=features,
        labels=labels,
        train_mask=masks["train"],
        val_mask=masks["val"],
        test_mask=masks["test"],
        num_classes=c,
    )


def save_dataset(graph: Graph, path) -> None:
    """Write ``graph`` to a dataset directory (created if absent).

    ``load_dataset(save_dataset(g)) == g`` holds exactly: integers are
    written verbatim and the features as a C-ordered float64 ``.npy`` array.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    np.save(root / "features.npy", graph.features, allow_pickle=False)

    split = np.full(graph.num_nodes, "none", dtype=object)
    split[graph.train_mask] = "train"
    split[graph.val_mask] = "val"
    split[graph.test_mask] = "test"
    # tolist() yields Python ints and strs (same str, no numpy scalar per cell).
    line_files = {
        "edges.csv": (f"{u},{v}" for u, v in graph.edges.tolist()),
        "labels.csv": graph.labels.tolist(),
        "split.csv": split.tolist(),
    }
    for name, lines in line_files.items():
        with (root / name).open("w", encoding="utf-8") as f:
            f.writelines(f"{line}\n" for line in lines)

    meta = {
        "format_version": FORMAT_VERSION,
        "num_nodes": graph.num_nodes,
        "num_features": graph.feature_dim,
        "num_classes": graph.num_classes,
        "num_edges": graph.num_edges,
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def dataset_summary(graph: Graph) -> dict:
    """Human-facing statistics used by the CLI validator."""
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_features": graph.feature_dim,
        "num_classes": graph.num_classes,
        "train_nodes": int(graph.train_mask.sum()),
        "val_nodes": int(graph.val_mask.sum()),
        "test_nodes": int(graph.test_mask.sum()),
    }
