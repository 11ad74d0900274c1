"""On-disk dataset format: load, save, validate.

A dataset directory contains five files:

    edges.csv      one edge per line, two comma-separated integer node ids
    features.csv   N lines, d comma-separated reals per line
    labels.csv     N lines, one integer class id per line
    split.csv      N lines, each one of: train, val, test, none
    meta.json      {"num_nodes": N, "num_features": d, "num_classes": C, ...}

Integers round-trip bit-exactly; reals are written with shortest
round-trip formatting (repr), which reconstructs the exact double.
``features.csv`` is read by ``np.loadtxt``'s grammar, the other files'
integers by ``int()``. Edges go through :func:`acgl.graph.canonical_edges`:
directed or duplicated edges are symmetrized and deduplicated, self-loops
dropped (they are reintroduced during normalization).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .graph import Graph, canonical_edges

FORMAT_NAME = "csv-dir"
FORMAT_VERSION = 1

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


def _loadtxt(lines: list[str]) -> np.ndarray | None:
    """``lines`` as a float64 matrix in ``np.loadtxt``'s grammar, or None if it rejects them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns when every line is blank
        try:
            return np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None


def _parse_features(path: Path, lines: list[str], d: int) -> np.ndarray:
    """The ``len(lines) x d`` feature matrix, in one ``np.loadtxt`` pass.

    That grammar reads a well-formed row bit for bit as ``float()`` does,
    takes ASCII 0x1C-0x1F as blanks and rejects ``1_0`` and non-ASCII digits.
    When the pass fails (or skips a blank line), the lines are re-read one at
    a time, column count first, only to name the first bad ``path:line``.
    """
    features = _loadtxt(lines)
    if features is not None and features.shape == (len(lines), d):
        return features
    for i, line in enumerate(lines, start=1):
        columns = line.count(",") + 1
        if columns != d:
            raise _parse_error(path, i, f"expected {d} columns, got {columns}")
        row = _loadtxt([line])
        if row is None or row.shape != (1, d):
            raise _parse_error(path, i, f"non-numeric feature entry in {line!r}")
    raise DatasetFormatError(f"{path}: rows parse one at a time but not as one file")


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

    feat_path, feat_lines = _node_lines(root, "features.csv", n)
    features = _parse_features(feat_path, feat_lines, d)
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        line_no = int(np.argmin(finite_rows)) + 1
        raise _parse_error(feat_path, line_no, "features contain non-finite values")

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
    written verbatim and reals with shortest round-trip formatting.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    split = np.full(graph.num_nodes, "none", dtype=object)
    split[graph.train_mask] = "train"
    split[graph.val_mask] = "val"
    split[graph.test_mask] = "test"
    # tolist() yields Python ints, floats and strs (same str/repr, no numpy
    # scalar per cell); features go row by row so no N x d list of floats is built.
    line_files = {
        "edges.csv": (f"{u},{v}" for u, v in graph.edges.tolist()),
        "features.csv": (",".join(map(repr, row.tolist())) for row in graph.features),
        "labels.csv": graph.labels.tolist(),
        "split.csv": split.tolist(),
    }
    for name, lines in line_files.items():
        with (root / name).open("w", encoding="utf-8") as f:
            f.writelines(f"{line}\n" for line in lines)

    meta = {
        "format": FORMAT_NAME,
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
