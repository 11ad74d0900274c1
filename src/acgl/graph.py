"""Graph data model, adjacency normalization, and class-incremental session plans.

A :class:`Graph` is a single undirected attributed graph: edge list, dense
node features, integer labels, and disjoint train/val/test masks. Edges are
stored canonically (each pair once, smaller id first, no self-loops); the
self-loop needed by GCN message passing is added inside
:func:`normalize_adjacency`, never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def canonical_edges(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonicalize an edge array: drop self-loops, undirect, sort, dedupe.

    Accepts any (E, 2) integer array; returns rows with u < v, lexicographically
    sorted and unique. Raises ValueError on out-of-range endpoints.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError(
            f"edge endpoint out of range [0, {num_nodes}): "
            f"min={edges.min()}, max={edges.max()}"
        )
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    stacked = np.stack([lo, hi], axis=1)
    if stacked.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(stacked, axis=0)


@dataclass(frozen=True)
class Graph:
    """Immutable attributed graph with train/val/test node masks.

    Invariants (checked at construction): canonical edge list, finite
    features, labels in [0, num_classes), masks boolean, same length, and
    pairwise disjoint.
    """

    num_nodes: int
    edges: np.ndarray        # (E, 2) int64, u < v, unique
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
            if len(np.unique(edges, axis=0)) != len(edges):
                raise ValueError("duplicate edges")
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


def adjacency_matrix(graph: Graph) -> sp.csr_array:
    """Sparse symmetric 0/1 adjacency (no self-loops) of ``graph``."""
    n = graph.num_nodes
    e = graph.edges
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_array((data, (rows, cols)), shape=(n, n))


def normalize_adjacency(graph: Graph) -> sp.csr_array:
    """Symmetrically normalized adjacency with self-loops.

    Returns D^{-1/2} (A + I) D^{-1/2} as a sparse CSR array, where D is the
    diagonal degree matrix of A + I. The self-loop guarantees every degree
    is at least 1, so the result is always defined.
    """
    n = graph.num_nodes
    a_tilde = adjacency_matrix(graph) + sp.eye_array(n, format="csr")
    deg = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    scale = sp.dia_array((d_inv_sqrt[None, :], [0]), shape=(n, n)).tocsr()
    return (scale @ a_tilde @ scale).tocsr()


def row_normalize_features(graph: Graph) -> Graph:
    """Return a copy of ``graph`` with each feature row scaled to unit L1 norm.

    Zero rows are left untouched. Off by default everywhere; exposed as an
    opt-in preprocessing step.
    """
    feats = np.array(graph.features, dtype=np.float64)
    norms = np.abs(feats).sum(axis=1)
    nonzero = norms > 0
    feats[nonzero] /= norms[nonzero, None]
    return Graph(
        num_nodes=graph.num_nodes,
        edges=graph.edges,
        features=feats,
        labels=graph.labels,
        train_mask=graph.train_mask,
        val_mask=graph.val_mask,
        test_mask=graph.test_mask,
        num_classes=graph.num_classes,
    )


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

    def classes_through(self, session: int) -> tuple[int, ...]:
        """All class ids seen after completing ``session`` (inclusive)."""
        out: list[int] = []
        for g in self.groups[: session + 1]:
            out.extend(g)
        return tuple(out)


def default_base_size(num_classes: int) -> int:
    """Base group size when none is given: half the classes, rounded up."""
    return math.ceil(num_classes / 2)


def build_session_plan(
    graph: Graph,
    c0: int,
    k: int,
    class_order: list[int] | None = None,
) -> SessionPlan:
    """Split the class set into a base group and incremental groups of size k.

    ``class_order`` must be a permutation of [0, num_classes); default is
    ascending class id. Every class lands in exactly one group.
    """
    c = graph.num_classes
    if class_order is None:
        class_order = list(range(c))
    if sorted(class_order) != list(range(c)):
        raise ValueError("class_order must be a permutation of all class ids")
    if not 1 <= c0 < c:
        raise ValueError(f"base class count c0={c0} must satisfy 1 <= c0 < C={c}")
    if not 1 <= k <= c - c0:
        raise ValueError(f"increment size k={k} must satisfy 1 <= k <= C - c0 = {c - c0}")

    groups = [tuple(class_order[:c0])]
    rest = class_order[c0:]
    for start in range(0, len(rest), k):
        groups.append(tuple(rest[start : start + k]))
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
