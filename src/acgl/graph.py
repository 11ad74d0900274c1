"""Graph data model, adjacency normalization, and class-incremental session plans.

A :class:`Graph` is a single undirected attributed graph: edge list, dense
node features, integer labels, and disjoint train/val/test masks. Edges are
stored canonically (each pair once, smaller id first, no self-loops, rows in
sorted order); the self-loop needed by GCN message passing is added inside
:func:`normalize_adjacency`, which writes the CSR arrays of the normalized
matrix directly from the edge list and the degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def canonical_edges(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonicalize an edge array: drop self-loops, undirect, sort, dedupe.

    Accepts any (E, 2) integer array; returns int64 rows with u < v,
    lexicographically sorted and unique: the int64 keys ``lo * num_nodes +
    hi`` are sorted once and a neighbour mask drops repeats. Raises
    ValueError on out-of-range endpoints, and on a ``num_nodes`` above
    3,037,000,499 = isqrt(2**63 - 1), whose keys would overflow int64.
    """
    if num_nodes > math.isqrt(np.iinfo(np.int64).max):
        raise ValueError(f"num_nodes={num_nodes} exceeds 3037000499, the most whose "
                         "edge keys fit in int64")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError(
            f"edge endpoint out of range [0, {num_nodes}): "
            f"min={edges.min()}, max={edges.max()}"
        )
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.sort((lo * num_nodes + hi)[lo != hi])
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return np.stack((keys // num_nodes, keys % num_nodes), axis=1)


@dataclass(frozen=True)
class Graph:
    """Immutable attributed graph with train/val/test node masks.

    Invariants (checked at construction): canonical edge list, finite
    features, labels in [0, num_classes), masks boolean, same length, and
    pairwise disjoint.
    """

    num_nodes: int
    edges: np.ndarray        # (E, 2) int64, u < v, rows sorted and unique
    features: np.ndarray     # (N, d) float64
    labels: np.ndarray       # (N,) int64
    train_mask: np.ndarray   # (N,) bool
    val_mask: np.ndarray     # (N,) bool
    test_mask: np.ndarray    # (N,) bool
    num_classes: int

    def __post_init__(self):
        n = self.num_nodes
        if n <= 0:
            raise ValueError("graph must have at least one node")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be canonical (u < v, no self-loops)")
            # Rows strictly increasing in lexicographic order: sorted and unique.
            du = np.diff(edges[:, 0])
            dv = np.diff(edges[:, 1])
            if np.any((du < 0) | ((du == 0) & (dv <= 0))):
                raise ValueError("edges must be sorted and free of duplicates")
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(f"features must be (N, d) with N={n}")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values (NaN or inf)")
        if labels.shape != (n,):
            raise ValueError("labels must be a length-N vector")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}); "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        masks = []
        for name in ("train_mask", "val_mask", "test_mask"):
            m = np.asarray(getattr(self, name), dtype=bool)
            if m.shape != (n,):
                raise ValueError(f"{name} must be a length-N boolean vector")
            masks.append(m)
        if np.any(masks[0] & masks[1]) or np.any(masks[0] & masks[2]) or np.any(masks[1] & masks[2]):
            raise ValueError("train/val/test masks must be disjoint")

        for name, arr in (("edges", edges), ("features", features), ("labels", labels),
                          ("train_mask", masks[0]), ("val_mask", masks[1]), ("test_mask", masks[2])):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


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
    groups of size k (the last may be smaller).
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty class group")
            if seen & set(g):
                raise ValueError("class groups must be disjoint")
            seen.update(g)

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
    masks are restricted. Labels keep their original ids and num_classes is
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

    return Graph(
        num_nodes=int(keep.size),
        edges=remap[e[inside]],
        features=graph.features[keep],
        labels=graph.labels[keep],
        train_mask=graph.train_mask[keep],
        val_mask=graph.val_mask[keep],
        test_mask=graph.test_mask[keep],
        num_classes=graph.num_classes,
    )
