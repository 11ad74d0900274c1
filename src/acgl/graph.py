"""Graph data model, adjacency normalization, and class-incremental session plans.

A :class:`Graph` is a single undirected attributed graph, holding what a
dataset directory holds: edge list, dense node features, integer labels
and one split code per node; its constructor is the one checker of these
arrays, and it canonicalizes the edges (each pair once, smaller id first,
no self-loops, rows in sorted order); the self-loop needed by GCN message
passing is added inside :func:`normalize_adjacency`, which writes the CSR
arrays of the normalized matrix directly from the edge list and the degrees.
A :class:`SessionPlan` is its class count, base size and increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np
import scipy.sparse as sp


class FieldError(ValueError):
    """A dataclass field or graph array outside its range, named so a caller can map it to
    its config key or dataset file."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} {rule} (got {value!r})")
        self.field, self.rule, self.value = field, rule, value


def check_fields(config, checks) -> None:
    """Raise :class:`FieldError` for the first ``(field, ok, rule)`` of ``config`` not ok;
    a dotted ``field`` is a field's field."""
    for field, ok, rule in checks:
        if not ok:
            raise FieldError(field, rule, attrgetter(field)(config))


def _check_rows(field: str, values: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise the :class:`FieldError` of ``field`` for the first row of ``values`` with a
    ``bad`` entry; ``rule`` is formatted with that ``row`` and its ``value``."""
    if bad.any():
        first = int(bad.argmax())  # in C order, the first bad entry lies in the first bad row
        row = first // (bad.size // len(bad))
        raise FieldError(field, rule.format(row=row, value=values[row].tolist()),
                         values.flat[first].item())


def _integers(field: str, values, end: int) -> np.ndarray:
    """``values`` as int64, kept if it already is; a non-integer dtype or a value outside
    [0, end) raises FieldError. The range is checked before the cast, so an unsigned
    value past int64 is named as the caller passed it."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise FieldError(field, "must hold integers", values.dtype.name)
    _check_rows(field, values, (values < 0) | (values >= end),
                f"row {{row}} holds {{value}}, outside [0, {end})")
    return values.astype(np.int64, copy=False)


def frozen(values: np.ndarray, order: str = "C") -> np.ndarray:
    """``np.asarray(values, order=order)`` made read-only, the rule for every array a type
    holds, after the type has converted it to its dtype and checked it: an array already
    in that layout is kept, not copied, and so turns read-only too (a kept view's base
    stays writeable); any other is copied."""
    values = np.asarray(values, order=order)
    values.setflags(write=False)
    return values


def check_node_count(num_nodes: int) -> None:
    """Raise ValueError for a ``num_nodes`` whose edge keys would overflow int64."""
    if num_nodes > math.isqrt(np.iinfo(np.int64).max):
        raise ValueError(f"num_nodes={num_nodes} exceeds 3037000499, the most whose "
                         "edge keys fit in int64")


def canonical_edges(edges, num_nodes: int) -> np.ndarray:
    """Canonicalize an edge array: drop self-loops, undirect, sort, dedupe.

    Accepts any (E, 2) integer array, E = 0 included; any other shape raises
    ValueError naming it. Returns new int64 rows with u < v, lexicographically
    sorted and unique: the int64 keys ``lo * num_nodes + hi`` are sorted
    once and a neighbour mask drops repeats. A non-integer dtype or an endpoint
    outside [0, num_nodes) raises the :class:`FieldError` of ``edges``; a
    ``num_nodes`` above 3,037,000,499 = isqrt(2**63 - 1) raises ValueError.
    """
    check_node_count(num_nodes)
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (E, 2), got {edges.shape}")
    edges = _integers("edges", edges, num_nodes)
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

    The node count N is the feature row count; the edges, any (E, 2) integer
    array, are held as the new array :func:`canonical_edges` makes. Invariants
    (checked at construction): N >= 1, finite features, integer labels in
    [0, num_classes) and integer split codes in [0, len(SPLIT_CODES)), each a
    length-N vector, and an ``int`` num_classes >= 1. A value out of range,
    a non-integer dtype or a non-finite feature raises the :class:`FieldError`
    of its field, naming the first row that holds one. Features, labels and
    split are held by :func:`frozen`'s rule, C-contiguous (this is why
    :func:`acgl.datasets.load_dataset` never copies its features).
    """

    edges: np.ndarray        # (E, 2) int64, u < v, rows sorted and unique
    features: np.ndarray     # (N, d) float64
    labels: np.ndarray       # (N,) int64
    split: np.ndarray        # (N,) int64, an index into SPLIT_CODES
    num_classes: int

    def __post_init__(self):
        check_fields(self, [("num_classes", type(self.num_classes) is int and self.num_classes >= 1,
                             "must be an int >= 1")])
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"features must be (N, d) with N >= 1 nodes, got {features.shape}")
        n = features.shape[0]
        edges = canonical_edges(self.edges, n)
        _check_rows("features", features, ~np.isfinite(features), "non-finite feature in row {row}")
        for name, end in (("labels", self.num_classes), ("split", len(SPLIT_CODES))):
            codes = np.asarray(getattr(self, name))
            if codes.shape != (n,):
                raise ValueError(f"{name} must be a length-N vector")
            object.__setattr__(self, name, _integers(name, codes, end))

        for name, arr in (("edges", edges), ("features", features), ("labels", self.labels),
                          ("split", self.split)):
            object.__setattr__(self, name, frozen(arr))

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
    """Raise ValueError naming the first class id in [0, num_classes) with no train node.

    A session plan covers every declared class, and a session fits on its
    classes' train nodes, so such a class fails every plan. O(N): when C
    exceeds the train count T, some id <= T has no train node, so only ids
    up to T are looked at.
    """
    trained = graph.labels[graph.train_mask]
    seen = np.zeros(min(graph.num_classes, trained.size + 1), dtype=bool)
    seen[trained[trained < seen.size]] = True
    if not seen.all():
        raise ValueError(f"class {np.argmin(seen)} has no train node; "
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
    """The class groups of one class-incremental run, from C, c0 and k.

    ``groups[0]``, the base group, holds the ids 0..c0-1 and each later group
    the next k ids (the last may be smaller), so column j of the classifier's
    weights is class id j. A c0 of None means :func:`default_base_size`. A
    field that is not an ``int`` (``bool`` and numpy ints excluded), or a c0 or
    k outside 1 <= c0 < C, 1 <= k <= C - c0, raises its :class:`FieldError`.
    """

    num_classes: int
    c0: int | None
    k: int

    def __post_init__(self):
        check_fields(self, [("num_classes", type(self.num_classes) is int, "must be an int")])
        if self.c0 is None:
            object.__setattr__(self, "c0", default_base_size(self.num_classes))
        check_fields(self, [(name, type(getattr(self, name)) is int, "must be an int")
                            for name in ("c0", "k")])
        c, c0, k = self.num_classes, self.c0, self.k
        check_fields(self, [("c0", 1 <= c0 < c, f"must satisfy 1 <= c0 < C = {c}"),
                            ("k", 1 <= k <= c - c0, f"must satisfy 1 <= k <= C - c0 = {c - c0}")])

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        c, k = self.num_classes, self.k
        return (self.base_classes,) + tuple(tuple(range(start, min(start + k, c)))
                                           for start in range(self.c0, c, k))

    @property
    def num_sessions(self) -> int:
        return len(self.groups)

    @property
    def base_classes(self) -> tuple[int, ...]:
        return tuple(range(self.c0))


def default_base_size(num_classes: int) -> int:
    """Base group size when none is given: half the classes, rounded up."""
    return math.ceil(num_classes / 2)


def build_session_plan(graph: Graph, c0: int | None, k: int) -> SessionPlan:
    """``graph``'s :class:`SessionPlan`: base c0 (None: :func:`default_base_size`), increment k."""
    return SessionPlan(graph.num_classes, c0, k)


def session_subgraph(graph: Graph, class_set) -> Graph:
    """Induced subgraph over nodes whose label is in ``class_set``.

    Node ids are compacted (ascending original order); features, labels and
    split codes are restricted. Labels keep their original ids and num_classes is
    inherited from the parent graph. ``class_set`` is any iterable of class ids
    held to the graph's integer rule: a float, bool or str id, or one outside
    [0, num_classes), raises the :class:`FieldError` of ``class_set``.
    """
    class_ids = list(class_set)
    if not class_ids:
        raise ValueError("class_set must be non-empty")
    class_arr = _integers("class_set", class_ids, graph.num_classes)
    keep = np.flatnonzero(np.isin(graph.labels, class_arr))
    if keep.size == 0:
        raise ValueError(f"no nodes with labels in {class_arr.tolist()}")

    remap = np.full(graph.num_nodes, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    e = graph.edges
    inside = (remap[e[:, 0]] >= 0) & (remap[e[:, 1]] >= 0)

    return Graph(edges=remap[e[inside]], features=graph.features[keep], labels=graph.labels[keep],
                 split=graph.split[keep], num_classes=graph.num_classes)
