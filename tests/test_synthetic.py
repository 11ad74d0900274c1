import numpy as np
import pytest

from acgl.graph import Graph
from acgl.synthetic import (
    _class_split,
    _replay_edge_draws,
    generate_synthetic,
    intra_class_fraction,
)


def test_pure_homophily_yields_only_intra_class_edges():
    g = generate_synthetic(2, 4, 3, 1.0, seed=7)
    assert g.num_edges > 0
    assert intra_class_fraction(g) == 1.0


def test_zero_homophily_yields_only_inter_class_edges():
    g = generate_synthetic(3, 10, 4, 0.0, seed=3)
    assert g.num_edges > 0
    assert intra_class_fraction(g) == 0.0


def test_deterministic_for_fixed_seed():
    a = generate_synthetic(2, 4, 3, 1.0, seed=7)
    b = generate_synthetic(2, 4, 3, 1.0, seed=7)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)


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
    g = generate_synthetic(5, 10, 3, 0.8, seed=11)
    for c in range(5):
        members = g.labels == c
        assert (g.train_mask & members).sum() >= 1
        assert (g.test_mask & members).sum() >= 1


def test_minimum_sizes_still_split():
    g = generate_synthetic(2, 2, 1, 0.5, seed=0, avg_degree=3.0)  # n - 1 on 4 nodes
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
    # n = 8 nodes: above n - 1 = 7, the complete graph's mean degree, nothing is drawn.
    for avg_degree in (0.0, np.nan, np.inf, np.nextafter(7.0, np.inf), 1e308):
        with pytest.raises(ValueError, match="avg_degree"):
            generate_synthetic(2, 4, 3, 0.5, seed=0, avg_degree=avg_degree)
    generate_synthetic(2, 4, 3, 0.5, seed=0, avg_degree=7.0)


def test_no_self_loops_and_canonical_edges():
    g = generate_synthetic(3, 30, 4, 0.9, seed=5)
    assert (g.edges[:, 0] < g.edges[:, 1]).all()
    assert len(np.unique(g.edges, axis=0)) == g.num_edges


def _loop_generate_synthetic(num_classes, nodes_per_class, d, homophily, seed,
                             avg_degree=4.0, class_sep=1.0):
    """Oracle: the per-edge loop of scalar draws that ``generate_synthetic`` replays."""
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


# Shapes of the benchmark workloads and configs/synthetic.cfg, plus the extremes.
BIG_SESSIONS = dict(num_classes=8, nodes_per_class=2500, d=128, homophily=0.5, class_sep=0.2)
SHAPES = {
    "stream40": dict(num_classes=40, nodes_per_class=100, d=64, homophily=0.7, class_sep=0.3),
    "big_sessions": BIG_SESSIONS,
    "cora_csv": dict(num_classes=7, nodes_per_class=387, d=1433, homophily=0.8, class_sep=0.05),
    "synthetic_cfg": dict(num_classes=4, nodes_per_class=50, d=16, homophily=0.9),
    "homophily_0": dict(num_classes=3, nodes_per_class=10, d=2, homophily=0.0),
    "homophily_1": dict(num_classes=3, nodes_per_class=10, d=2, homophily=1.0),
    "two_per_class": dict(num_classes=2, nodes_per_class=2, d=1, homophily=0.5, avg_degree=3.0),
}
CASES = [(name, seed) for name in SHAPES if name != "big_sessions" for seed in (1, 7)] + [
    ("big_sessions", 0),   # two rejected half-words, see test_rejection_seed_reads_extra_outputs
    ("big_sessions", 7),   # one: the edges end with a half-word buffered for _class_split
    ("synthetic_cfg", 42),
]


@pytest.mark.parametrize("name,seed", CASES, ids=[f"{n}-seed{s}" for n, s in CASES])
def test_bulk_edges_byte_identical_to_scalar_loop(name, seed):
    got = generate_synthetic(**SHAPES[name], seed=seed)
    want = _loop_generate_synthetic(**SHAPES[name], seed=seed)
    for field in ("edges", "features", "labels", "train_mask", "val_mask", "test_mask"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


def test_rejection_seed_reads_extra_outputs():
    """Seed 0 of the big_sessions shape takes the rejection path.

    Without a rejected 32-bit draw the edge loop reads exactly two 64-bit
    outputs per edge; a copy of the generator advanced by that many lands
    elsewhere than the loop, so the loop read more.
    """
    shape = BIG_SESSIONS
    rng = np.random.default_rng(0)
    n = shape["num_classes"] * shape["nodes_per_class"]
    rng.normal(size=(shape["num_classes"], shape["d"]))
    rng.normal(size=(n, shape["d"]))
    num_edges = 2 * n
    common_path = np.random.PCG64()
    common_path.state = rng.bit_generator.state
    common_path.random_raw(2 * num_edges)
    for _ in range(num_edges):
        rng.integers(n)
        k = shape["nodes_per_class"] if rng.random() < shape["homophily"] else n - shape["nodes_per_class"]
        rng.integers(k)
    assert rng.bit_generator.state["state"] != common_path.state["state"]


@pytest.mark.parametrize("k", [2, 3, 20000, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 2])
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_replay_matches_interleaved_scalar_draws(k, buffered):
    """2**31 + 1 and 3 * 2**30 + 1 reject about a half and a quarter of all 32-bit draws."""
    homophily, count = 0.4, 500
    k_out = max(2, k - 1)
    bulk, scalar = np.random.default_rng(5), np.random.default_rng(5)
    if buffered:  # a 32-bit draw leaves the other half-word buffered
        bulk.integers(7)
        scalar.integers(7)
    u, same, j = _replay_edge_draws(bulk.bit_generator, k, k, k_out, homophily, count)
    want = []
    for _ in range(count):
        uu = int(scalar.integers(k))
        hit = bool(scalar.random() < homophily)
        want.append((uu, hit, int(scalar.integers(k if hit else k_out))))
    assert list(zip(u.tolist(), same.tolist(), j.tolist())) == want
    assert bulk.bit_generator.state == scalar.bit_generator.state
    assert (bulk.integers(k), bulk.random()) == (scalar.integers(k), scalar.random())


def test_replay_rejects_bounds_outside_32_bits():
    bitgen = np.random.PCG64(0)
    for k in (1, 2**32):
        with pytest.raises(ValueError):
            _replay_edge_draws(bitgen, k, 2, 2, 0.5, 3)
