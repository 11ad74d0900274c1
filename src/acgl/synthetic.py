"""Stochastic-block-model style synthetic graphs with Gaussian node features.

Every class gets the same number of nodes and a Gaussian feature cloud
around a class-specific mean. Edges are drawn one at a time: with
probability ``homophily`` the partner is sampled from the same class,
otherwise from a different class, so the expected intra-class edge
fraction equals ``homophily`` and homophily 1.0 yields purely
intra-class edges. Fully deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

# Per-class split used for the masks; remainders go to train.
_TRAIN_FRAC = 0.6
_VAL_FRAC = 0.2


def _class_split(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split n in-class node slots into train/val/test index sets."""
    order = rng.permutation(n)
    n_train = max(1, round(_TRAIN_FRAC * n))
    n_val = int(_VAL_FRAC * n)
    if n_train + n_val >= n:  # keep at least one test node
        n_val = max(0, n - n_train - 1)
    n_train = min(n_train, n - 1)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def generate_synthetic(
    num_classes: int,
    nodes_per_class: int,
    d: int,
    homophily: float,
    seed: int,
    avg_degree: float = 4.0,
    class_sep: float = 1.0,
) -> Graph:
    """Generate a labeled homophilous graph with class-conditional features.

    Parameters
    ----------
    num_classes, nodes_per_class, d
        Class count (>= 2), nodes per class (>= 2), feature dimension.
    homophily
        Probability in [0, 1] that an edge connects same-class endpoints.
    seed
        Seeds all randomness; identical seeds give byte-identical graphs.
    avg_degree
        Target mean degree before deduplication.
    class_sep
        Scale of the class mean vectors relative to unit feature noise.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if nodes_per_class < 2:
        raise ValueError("nodes_per_class must be >= 2")
    if d < 1:
        raise ValueError("feature dimension must be >= 1")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")

    rng = np.random.default_rng(seed)
    n = num_classes * nodes_per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), nodes_per_class)

    means = rng.normal(0.0, 1.0, size=(num_classes, d)) * class_sep
    features = means[labels] + rng.normal(0.0, 1.0, size=(n, d))

    class_members = [np.flatnonzero(labels == c) for c in range(num_classes)]
    class_others = [np.flatnonzero(labels != c) for c in range(num_classes)]
    num_edges = int(round(avg_degree * n / 2))
    pairs = set()
    for _ in range(num_edges):
        u = int(rng.integers(n))
        cu = labels[u]
        pool = class_members[cu] if rng.random() < homophily else class_others[cu]
        v = int(pool[rng.integers(len(pool))])
        if v == u:  # only possible on the intra-class branch
            v = int(class_members[cu][(np.searchsorted(class_members[cu], u) + 1) % nodes_per_class])
        pairs.add((min(u, v), max(u, v)))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in range(num_classes):
        members = class_members[c]
        tr, va, te = _class_split(len(members), rng)
        train[members[tr]] = True
        val[members[va]] = True
        test[members[te]] = True

    return Graph(
        num_nodes=n,
        edges=edges,
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=num_classes,
    )


def intra_class_fraction(graph: Graph) -> float:
    """Fraction of edges whose endpoints share a class (1.0 if no edges)."""
    if graph.num_edges == 0:
        return 1.0
    same = graph.labels[graph.edges[:, 0]] == graph.labels[graph.edges[:, 1]]
    return float(same.mean())
