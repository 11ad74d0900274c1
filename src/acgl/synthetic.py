"""Stochastic-block-model style synthetic graphs with Gaussian node features.

Every class gets the same number of nodes and a Gaussian feature cloud
around a class-specific mean. Each edge draws a node ``u``, then with
probability ``homophily`` a partner from ``u``'s class, otherwise from a
different class, so the expected intra-class edge fraction equals
``homophily`` and homophily 1.0 yields purely intra-class edges. The
edges come from numpy's bulk ``Generator`` draws, so a graph is
bit-reproducible for a given seed and numpy version. Repeated pairs are
merged by :func:`acgl.graph.canonical_edges`, as in a loaded dataset.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, canonical_edges

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
        Target mean degree before deduplication, in (0, n - 1] for
        n = num_classes * nodes_per_class: at most the complete graph's.
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
    n = num_classes * nodes_per_class
    if not 0 < avg_degree <= n - 1:
        raise ValueError(f"avg_degree must lie in (0, n - 1 = {n - 1}], got {avg_degree!r}")

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), nodes_per_class)

    means = rng.normal(0.0, 1.0, size=(num_classes, d)) * class_sep
    features = means[labels] + rng.normal(0.0, 1.0, size=(n, d))

    num_edges = int(round(avg_degree * n / 2))
    u = rng.integers(n, size=num_edges)
    same = rng.random(num_edges) < homophily
    j = rng.integers(np.where(same, nodes_per_class, n - nodes_per_class))
    # Labels are np.repeat blocks: class c owns nodes [c, c + 1) * nodes_per_class,
    # so the j-th node of u's class and the j-th node outside it are closed forms.
    first = u - u % nodes_per_class
    v = np.where(same, first + j, j + nodes_per_class * (j >= first))
    clash = v == u  # only possible on the intra-class branch: take u's successor
    v[clash] = first[clash] + (u[clash] - first[clash] + 1) % nodes_per_class
    edges = canonical_edges(np.stack((u, v), axis=1), n)

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in range(num_classes):
        members = np.arange(c * nodes_per_class, (c + 1) * nodes_per_class)
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
