"""Graph data model, adjacency normalization, and class-incremental session plans.

A :class:`Graph` is a single undirected attributed graph, holding what a
dataset directory holds: edge list, dense node features, integer labels
and one split code per node; its constructor is the one checker of these
arrays. Edges are stored canonically (each pair once, smaller id first, no
self-loops, rows in sorted order); the self-loop needed by GCN message
passing is added inside :func:`normalize_adjacency`, which writes the CSR
arrays of the normalized matrix directly from the edge list and the degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class FieldError(ValueError):
    """A dataclass field or graph array outside its range, named so a caller can map it to
    its config key or dataset file."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} {rule} (got {value!r})")
        self.field, self.rule, self.value = field, rule, value


def check_fields(config, checks) -> None:
    """Raise :class:`FieldError` for the first ``(field, ok, rule)`` of ``config`` not ok."""
    for field, ok, rule in checks:
        if not ok:
            raise FieldError(field, rule, getattr(config, field))


def _check_rows(field: str, values: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise the :class:`FieldError` of ``field`` for the first row of ``values`` with a
    ``bad`` entry; ``rule`` is formatted with that ``row`` and its ``value``."""
    if bad.any():
        first = int(bad.argmax())  # in C order, the first bad entry lies in the first bad row
        row = first // (bad.size // len(bad))
        raise FieldError(field, rule.format(row=row, value=values[row].tolist()),
                         values.flat[first].item())


def _check_range(field: str, values: np.ndarray, end: int) -> None:
    _check_rows(field, values, (values < 0) | (values >= end),
                f"row {{row}} holds {{value}}, outside [0, {end})")


def canonical_edges(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonicalize an edge array: drop self-loops, undirect, sort, dedupe.

    Accepts any (E, 2) integer array; returns int64 rows with u < v,
    lexicographically sorted and unique: the int64 keys ``lo * num_nodes +
    hi`` are sorted once and a neighbour mask drops repeats. An endpoint
    outside [0, num_nodes) raises the :class:`FieldError` of ``edges``
    naming its row; a ``num_nodes`` above 3,037,000,499 = isqrt(2**63 - 1),
    whose keys would overflow int64, raises ValueError.
    """
    if num_nodes > math.isqrt(np.iinfo(np.int64).max):
        raise ValueError(f"num_nodes={num_nodes} exceeds 3037000499, the most whose "
                         "edge keys fit in int64")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _check_range("edges", edges, num_nodes)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.sort((lo * num_nodes + hi)[lo != hi])
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return np.stack((keys // num_nodes, keys % num_nodes), axis=1)


SPLIT_CODES = ("train", "val", "test", "none")  # split code i puts a node in SPLIT_CODES[i]


@dataclass(frozen=True)
class Graph:
    """Immutable attributed graph: the arrays of a dataset directory and its class count.

    The node count N is the feature row count. Invariants (checked at
    construction): N >= 1, canonical edge list, finite features, labels in
    [0, num_classes) and split codes in [0, len(SPLIT_CODES)), each a
    length-N vector. An endpoint, label or code out of range, or a
    non-finite feature, raises the :class:`FieldError` of its field,
    naming the first row that holds one. Features, labels and split that
    are already C-contiguous of their dtype are kept, not copied, and made
    read-only, so the caller's arrays turn read-only too (this is why
    :func:`acgl.datasets.load_dataset` never copies its features); any other
    is copied and the caller's stays writeable.
    """

    edges: np.ndarray        # (E, 2) int64, u < v, rows sorted and unique
    features: np.ndarray     # (N, d) float64
    labels: np.ndarray       # (N,) int64
    split: np.ndarray        # (N,) int64, an index into SPLIT_CODES
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"features must be (N, d) with N >= 1 nodes, got {features.shape}")
        n = features.shape[0]
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        _check_range("edges", edges, n)
        if edges.size:
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be canonical (u < v, no self-loops)")
            # Rows strictly increasing in lexicographic order: sorted and unique.
            du = np.diff(edges[:, 0])
            dv = np.diff(edges[:, 1])
            if np.any((du < 0) | ((du == 0) & (dv <= 0))):
                raise ValueError("edges must be sorted and free of duplicates")
        _check_rows("features", features, ~np.isfinite(features), "non-finite feature in row {row}")
        labels = np.asarray(self.labels, dtype=np.int64)
        split = np.asarray(self.split, dtype=np.int64)
        for name, codes, end in (("labels", labels, self.num_classes),
                                 ("split", split, len(SPLIT_CODES))):
            if codes.shape != (n,):
                raise ValueError(f"{name} must be a length-N vector")
            _check_range(name, codes, end)

        for name, arr in (("edges", edges), ("features", features), ("labels", labels),
                          ("split", split)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def train_mask(self) -> np.ndarray:
        return self.split == 0

    @property
    def test_mask(self) -> np.ndarray:
        return self.split == 2

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def check_class_coverage(graph: Graph) -> None:
    """Raise ValueError naming the first class id in [0, num_classes) that labels no node.

    A session plan covers every declared class, so such a class would get a
    session with no node. O(N): when C > N some id <= N has no node, so only
    ids up to N are looked at.
    """
    seen = np.zeros(min(graph.num_classes, graph.num_nodes + 1), dtype=bool)
    seen[graph.labels[graph.labels < seen.size]] = True
    if not seen.all():
        raise ValueError(f"class {np.argmin(seen)} has no node; "
                         f"the graph declares {graph.num_classes} classes")


def normalize_adjacency(graph: Graph) -> sp.csr_array:
    """Symmetrically normalized adjacency with self-loops.

    Returns D^{-1/2} (A + I) D^{-1/2} as a CSR array with sorted indices,
    where D is the diagonal degree matrix of A + I. The self-loop guarantees
    every degree is at least 1, so the result is always defined.

    The row-major keys ``i * n + j`` of (u, v), (v, u) and (i, i), sorted
    once, give every row's columns in order; row i holds ``deg[i]`` entries.
    Each value is ``d_inv_sqrt[i] * d_inv_sqrt[j]``, the single rounding that
    scaling A + I by the diagonal on each side also makes.
    """
    n = graph.num_nodes
    u, v = graph.edges.T
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n) + 1
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    nodes = np.arange(n)
    keys = np.sort(np.concatenate([u * n + v, v * n + u, nodes * (n + 1)]))
    rows = np.repeat(nodes, deg)
    cols = keys - rows * n
    indptr = np.concatenate([[0], np.cumsum(deg)])
    return sp.csr_array((d_inv_sqrt[rows] * d_inv_sqrt[cols], cols, indptr), shape=(n, n))


@dataclass(frozen=True)
class SessionPlan:
    """Ordered class groups for one class-incremental run.

    ``groups[0]`` is the base group (size c0); the rest are incremental
    groups of size k (the last may be smaller). The groups, concatenated,
    are the class ids 0, 1, ... in order, so column j of the classifier's
    weights is class id j.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not all(self.groups):
            raise ValueError("empty class group")
        ids = [c for g in self.groups for c in g]
        if ids != list(range(len(ids))):
            raise ValueError(f"class groups must hold the ids 0, 1, ... in order, got {self.groups}")

    @property
    def num_sessions(self) -> int:
        return len(self.groups)

    @property
    def base_classes(self) -> tuple[int, ...]:
        return self.groups[0]


def default_base_size(num_classes: int) -> int:
    """Base group size when none is given: half the classes, rounded up."""
    return math.ceil(num_classes / 2)


def build_session_plan(graph: Graph, c0: int, k: int) -> SessionPlan:
    """Split the classes, in ascending id order, into a base group and groups of size k.

    The base group holds ids 0..c0-1 and each later group the next k ids
    (the last may be smaller). Every class lands in exactly one group.
    """
    c = graph.num_classes
    if not 1 <= c0 < c:
        raise ValueError(f"base class count c0={c0} must satisfy 1 <= c0 < C={c}")
    if not 1 <= k <= c - c0:
        raise ValueError(f"increment size k={k} must satisfy 1 <= k <= C - c0 = {c - c0}")

    groups = [tuple(range(c0))]
    for start in range(c0, c, k):
        groups.append(tuple(range(start, min(start + k, c))))
    return SessionPlan(groups=tuple(groups))


def session_subgraph(graph: Graph, class_set) -> Graph:
    """Induced subgraph over nodes whose label is in ``class_set``.

    Node ids are compacted (ascending original order); features, labels and
    split codes are restricted. Labels keep their original ids and num_classes is
    inherited from the parent graph. The compaction is monotone, so the
    parent's canonical edges stay canonical after remapping.
    """
    class_arr = np.asarray(sorted(set(int(c) for c in class_set)), dtype=np.int64)
    if class_arr.size == 0:
        raise ValueError("class_set must be non-empty")
    keep = np.flatnonzero(np.isin(graph.labels, class_arr))
    if keep.size == 0:
        raise ValueError(f"no nodes with labels in {class_arr.tolist()}")

    remap = np.full(graph.num_nodes, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    e = graph.edges
    inside = (remap[e[:, 0]] >= 0) & (remap[e[:, 1]] >= 0)

    return Graph(edges=remap[e[inside]], features=graph.features[keep], labels=graph.labels[keep],
                 split=graph.split[keep], num_classes=graph.num_classes)
