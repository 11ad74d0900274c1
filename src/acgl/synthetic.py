"""Stochastic-block-model style synthetic graphs with Gaussian node features.

Every class gets the same number of nodes and a Gaussian feature cloud
around a class-specific mean. Each edge draws a node ``u``, then with
probability ``homophily`` a partner from ``u``'s class, otherwise from a
different class, so the expected intra-class edge fraction equals
``homophily`` and homophily 1.0 yields purely intra-class edges. The
edges come from numpy's bulk ``Generator`` draws, so a graph is
bit-reproducible for a given seed and numpy version. Repeated pairs are
merged by the :class:`~acgl.graph.Graph` constructor, as in a loaded dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import FieldError, Graph, check_fields

# Per-class split fractions; remainders go to test.
_TRAIN_FRAC = 0.6
_VAL_FRAC = 0.2
_AVG_DEGREE = 4.0  # mean degree of every graph before repeated pairs merge


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic graph, as :func:`generate_synthetic` draws it at mean degree 4.0."""

    classes: int = 4
    nodes_per_class: int = 50
    features: int = 16
    homophily: float = 0.9      # probability that an edge joins same-class endpoints
    class_sep: float = 1.0      # scale of the class means against unit feature noise

    def __post_init__(self):
        check_fields(self, [
            ("classes", self.classes >= 2, "must be >= 2"),
            ("nodes_per_class", self.nodes_per_class >= 2, "must be >= 2"),
            ("features", self.features >= 1, "must be >= 1"),
            ("homophily", 0.0 <= self.homophily <= 1.0, "must lie in [0, 1]"),
        ])


def _class_split(n: int, rng: np.random.Generator) -> np.ndarray:
    """Split codes (0 train, 1 val, 2 test) of n in-class node slots, in random order."""
    order = rng.permutation(n)
    # For n >= 2 (SyntheticSpec's floor), n_train >= 1 and n_train + n_val < n.
    n_train = round(_TRAIN_FRAC * n)
    n_val = int(_VAL_FRAC * n)
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.repeat([0, 1, 2], [n_train, n_val, n - n_train - n_val])
    return codes


def generate_synthetic(
    num_classes: int,
    nodes_per_class: int,
    d: int,
    homophily: float,
    seed: int,
    class_sep: float = SyntheticSpec.class_sep,
) -> Graph:
    """Generate a labeled homophilous graph with class-conditional features.

    ``num_classes``, ``nodes_per_class``, ``d``, ``homophily`` and ``class_sep``
    are the :class:`SyntheticSpec` fields of the same meaning; a value out of
    range raises its :class:`~acgl.graph.FieldError`. The mean degree is fixed at
    4.0: ``round(2.0 * n)`` edges are drawn before repeated pairs merge. ``seed``
    (>= 0, else a ``FieldError``) seeds all randomness: identical seeds give
    byte-identical graphs.
    """
    SyntheticSpec(num_classes, nodes_per_class, d, homophily, class_sep)
    if seed < 0:
        raise FieldError("seed", "must be >= 0", seed)
    n = num_classes * nodes_per_class

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), nodes_per_class)

    means = rng.normal(0.0, 1.0, size=(num_classes, d)) * class_sep
    features = means[labels] + rng.normal(0.0, 1.0, size=(n, d))

    num_edges = int(round(_AVG_DEGREE * n / 2))
    u = rng.integers(n, size=num_edges)
    same = rng.random(num_edges) < homophily
    j = rng.integers(np.where(same, nodes_per_class, n - nodes_per_class))
    # Labels are np.repeat blocks: class c owns nodes [c, c + 1) * nodes_per_class,
    # so the j-th node of u's class and the j-th node outside it are closed forms.
    first = u - u % nodes_per_class
    v = np.where(same, first + j, j + nodes_per_class * (j >= first))
    clash = v == u  # only possible on the intra-class branch: take u's successor
    v[clash] = first[clash] + (u[clash] - first[clash] + 1) % nodes_per_class

    split = np.concatenate([_class_split(nodes_per_class, rng) for _ in range(num_classes)])
    return Graph(edges=np.stack((u, v), axis=1), features=features, labels=labels, split=split,
                 num_classes=num_classes)


def intra_class_fraction(graph: Graph) -> float:
    """Fraction of edges whose endpoints share a class (1.0 if no edges)."""
    if graph.num_edges == 0:
        return 1.0
    same = graph.labels[graph.edges[:, 0]] == graph.labels[graph.edges[:, 1]]
    return float(same.mean())
