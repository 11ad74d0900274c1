import numpy as np
import pytest

from acgl.synthetic import generate_synthetic, intra_class_fraction

# Shapes of the benchmark workloads and configs/synthetic.cfg, plus the extremes.
SHAPES = {
    "stream40": dict(num_classes=40, nodes_per_class=100, d=64, homophily=0.7, class_sep=0.3),
    "big_sessions": dict(num_classes=8, nodes_per_class=2500, d=128, homophily=0.5,
                         class_sep=0.2),
    "cora_csv": dict(num_classes=7, nodes_per_class=387, d=1433, homophily=0.8, class_sep=0.05),
    "synthetic_cfg": dict(num_classes=4, nodes_per_class=50, d=16, homophily=0.9),
    "homophily_0": dict(num_classes=3, nodes_per_class=10, d=2, homophily=0.0),
    "homophily_1": dict(num_classes=3, nodes_per_class=10, d=2, homophily=1.0),
    "two_per_class": dict(num_classes=2, nodes_per_class=2, d=1, homophily=0.5),
}
GRAPH_FIELDS = ("edges", "features", "labels", "split")


def _each_shape(seeds=(1, 7)):
    """(name, seed, graph) for every shape in SHAPES at each seed."""
    for name, shape in SHAPES.items():
        for seed in seeds:
            yield name, seed, generate_synthetic(**shape, seed=seed)


def test_pure_homophily_yields_only_intra_class_edges():
    for seed in (1, 7):
        g = generate_synthetic(**SHAPES["homophily_1"], seed=seed)
        assert g.num_edges > 0
        assert intra_class_fraction(g) == 1.0


def test_zero_homophily_yields_only_inter_class_edges():
    for seed in (1, 7):
        g = generate_synthetic(**SHAPES["homophily_0"], seed=seed)
        assert g.num_edges > 0
        assert intra_class_fraction(g) == 0.0


def test_deterministic_for_fixed_seed():
    for name, seed, a in _each_shape():
        b = generate_synthetic(**SHAPES[name], seed=seed)
        for field in GRAPH_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), (name, seed, field)
            assert x.tobytes() == y.tobytes(), (name, seed, field)


def test_different_seeds_differ():
    a = generate_synthetic(3, 20, 4, 0.7, seed=1)
    b = generate_synthetic(3, 20, 4, 0.7, seed=2)
    assert not np.array_equal(a.features, b.features)


def test_intra_fraction_tracks_homophily():
    # Monte-Carlo over 10 seeds; the edge-level sampling targets 0.5 exactly.
    fractions = [
        intra_class_fraction(generate_synthetic(4, 25, 4, 0.5, seed=s))
        for s in range(10)
    ]
    assert abs(np.mean(fractions) - 0.5) < 0.1


def test_masks_cover_every_class():
    for name, seed, g in _each_shape():
        for c in range(g.num_classes):
            members = g.labels == c
            assert (g.train_mask & members).sum() >= 1, (name, seed, c)
            assert (g.test_mask & members).sum() >= 1, (name, seed, c)


def test_minimum_sizes_still_split():
    g = generate_synthetic(2, 2, 1, 0.5, seed=0)  # 8 edge draws merge into at most 6 pairs
    assert g.train_mask.sum() == 2  # one per class
    assert g.test_mask.sum() == 2


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        generate_synthetic(1, 4, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 1, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 4, 3, 1.5, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 4, 0, 0.5, seed=0)


def test_no_self_loops_and_canonical_edges():
    for name, seed, g in _each_shape():
        assert g.num_edges > 0, (name, seed)
        assert (g.edges[:, 0] < g.edges[:, 1]).all(), (name, seed)
        assert len(np.unique(g.edges, axis=0)) == g.num_edges, (name, seed)

