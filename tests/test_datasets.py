import json
from pathlib import Path

import numpy as np
import pytest

from acgl.datasets import DatasetFormatError, load_dataset, save_dataset
from acgl.synthetic import generate_synthetic

from conftest import random_graph


def write_toy_dataset(root, edges="0,1\n1,2\n", labels="0\n1\n1\n",
                      features=None, split="train\nval\ntest\n", meta=None):
    root.mkdir(parents=True, exist_ok=True)
    if features is None:
        features = "1.0,2.0\n3.5,-0.25\n0.0,1e-3\n"
    if meta is None:
        meta = {"num_nodes": 3, "num_features": 2, "num_classes": 2}
    (root / "edges.csv").write_text(edges)
    (root / "features.csv").write_text(features)
    (root / "labels.csv").write_text(labels)
    (root / "split.csv").write_text(split)
    (root / "meta.json").write_text(json.dumps(meta))


class TestLoad:
    def test_toy_fixture(self, tmp_path):
        write_toy_dataset(tmp_path / "toy")
        g = load_dataset(tmp_path / "toy")
        assert g.num_nodes == 3
        assert g.feature_dim == 2
        assert g.num_classes == 2
        assert g.num_edges == 2
        assert g.train_mask.tolist() == [True, False, False]

    def test_edge_out_of_range(self, tmp_path):
        write_toy_dataset(tmp_path / "bad", edges="0,99\n")
        with pytest.raises(DatasetFormatError, match=r"edges\.csv:1: edge \(0, 99\) out of range"):
            load_dataset(tmp_path / "bad")

    def test_label_out_of_range(self, tmp_path):
        write_toy_dataset(tmp_path / "bad", labels="0\n1\n7\n")
        with pytest.raises(DatasetFormatError, match=r"labels\.csv:3: label 7 out of range"):
            load_dataset(tmp_path / "bad")

    def test_parse_error_carries_line_number(self, tmp_path):
        write_toy_dataset(tmp_path / "bad", features="1.0,2.0\nnot,numeric\n0.0,0.0\n")
        with pytest.raises(DatasetFormatError, match=r"features\.csv:2"):
            load_dataset(tmp_path / "bad")

    def test_malformed_edge_line(self, tmp_path):
        write_toy_dataset(tmp_path / "bad", edges="0,1\n1;2\n")
        with pytest.raises(DatasetFormatError, match=r"edges\.csv:2"):
            load_dataset(tmp_path / "bad")

    def test_unknown_split_tag(self, tmp_path):
        write_toy_dataset(tmp_path / "bad", split="train\neval\ntest\n")
        with pytest.raises(DatasetFormatError, match=r"split\.csv:2"):
            load_dataset(tmp_path / "bad")

    def test_missing_file(self, tmp_path):
        write_toy_dataset(tmp_path / "bad")
        (tmp_path / "bad" / "labels.csv").unlink()
        with pytest.raises(DatasetFormatError, match="missing"):
            load_dataset(tmp_path / "bad")

    def test_directed_duplicates_are_merged(self, tmp_path):
        write_toy_dataset(tmp_path / "toy", edges="0,1\n1,0\n0,1\n2,1\n")
        g = load_dataset(tmp_path / "toy")
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])


class TestRoundTrip:
    def test_identity_on_random_graph(self, tmp_path):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 20, num_classes=4, d=5)
        save_dataset(g, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.num_nodes == g.num_nodes
        assert back.num_classes == g.num_classes
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.labels, g.labels)
        np.testing.assert_array_equal(back.features, g.features)  # bit-exact
        np.testing.assert_array_equal(back.train_mask, g.train_mask)
        np.testing.assert_array_equal(back.val_mask, g.val_mask)
        np.testing.assert_array_equal(back.test_mask, g.test_mask)

    def test_identity_on_synthetic(self, tmp_path):
        g = generate_synthetic(3, 5, 4, 0.8, seed=21)
        save_dataset(g, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(back.features, g.features)
        np.testing.assert_array_equal(back.edges, g.edges)

    def test_extreme_reals_survive(self, tmp_path):
        from acgl.graph import Graph

        feats = np.array([[1.0 / 3.0, 1e-300], [np.pi, -2.5e17]])
        g = Graph(
            num_nodes=2, edges=np.array([[0, 1]]), features=feats,
            labels=np.array([0, 1]), train_mask=np.array([True, False]),
            val_mask=np.array([False, False]), test_mask=np.array([False, True]),
            num_classes=2,
        )
        save_dataset(g, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(back.features, feats)


@pytest.mark.skipif(
    not Path("data/cora/meta.json").is_file(),
    reason="converted Cora dataset not present under data/cora",
)
def test_cora_statistics():
    g = load_dataset("data/cora")
    assert g.num_nodes == 2708
    assert g.num_edges == 5278
    assert g.num_classes == 7
    assert g.feature_dim == 1433
