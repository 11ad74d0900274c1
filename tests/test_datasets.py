import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgl.datasets import DatasetFormatError, load_dataset, save_dataset
from acgl.graph import Graph, canonical_edges
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

    def test_padded_split_tags_are_stripped(self, tmp_path):
        write_toy_dataset(tmp_path / "toy", split=" train\nval\t\r\nnone \n")
        g = load_dataset(tmp_path / "toy")
        assert (g.train_mask.tolist(), g.val_mask.tolist(), g.test_mask.tolist()) == (
            [True, False, False], [False, True, False], [False, False, False])

    def test_missing_file(self, tmp_path):
        write_toy_dataset(tmp_path / "bad")
        (tmp_path / "bad" / "labels.csv").unlink()
        with pytest.raises(DatasetFormatError, match="missing"):
            load_dataset(tmp_path / "bad")

    def test_directed_duplicates_are_merged(self, tmp_path):
        write_toy_dataset(tmp_path / "toy", edges="0,1\n1,0\n0,1\n2,1\n")
        g = load_dataset(tmp_path / "toy")
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])


def _load_outcome(root):
    """Features bytes of a successful load, or the error message."""
    try:
        return load_dataset(root).features.tobytes()
    except DatasetFormatError as exc:
        return str(exc)


WELL_FORMED = [[1.0, 2.0], [3.5, -0.25], [0.0, 1e-3]]

# Feature texts where np.loadtxt and float() differ (blank line, 1_0, a CR
# inside a line) or both reject (#, quotes), plus clean CRLF and CR files, a
# short row and a whitespace-only line. Each maps to the rows the file loads
# as, or to the error after "features.csv:". Every outcome is the one the
# earlier float() line parser gave too, except "underscore" (it read 10.0).
FEATURE_TEXTS = {
    "well_formed": ("1.0,2.0\n3.5,-0.25\n0.0,1e-3\n", WELL_FORMED),
    "blank_line": ("1.0,2.0\n\n0.0,1e-3\n", "2: expected 2 columns, got 1"),
    "underscore": ("1_0,2.0\n3.5,-0.25\n0.0,1e-3\n",
                   "1: non-numeric feature entry in '1_0,2.0'"),
    "crlf": ("1.0,2.0\r\n3.5,-0.25\r\n0.0,1e-3\r\n", WELL_FORMED),
    "cr": ("1.0,2.0\r3.5,-0.25\r0.0,1e-3\r", WELL_FORMED),
    "comment": ("1.0,2.0\n3.5,-0.25 # note\n0.0,1e-3\n",
                "2: non-numeric feature entry in '3.5,-0.25 # note'"),
    "hash_row": ("#1.0,2.0\n3.5,-0.25\n0.0,1e-3\n",
                 "1: non-numeric feature entry in '#1.0,2.0'"),
    "quoted": ('1.0,"2.0"\n3.5,-0.25\n0.0,1e-3\n',
               "1: non-numeric feature entry in '1.0,\"2.0\"'"),
    "short_row": ("1.0,2.0\n3.5\n0.0,1e-3\n", "2: expected 2 columns, got 1"),
    "whitespace_line": ("1.0,2.0\n \t\n0.0,1e-3\n", "2: expected 2 columns, got 1"),
}


class TestFeatureFastPath:
    @pytest.mark.parametrize("name", sorted(FEATURE_TEXTS))
    def test_bulk_parse_agrees_with_line_parser(self, tmp_path, name):
        text, expected = FEATURE_TEXTS[name]
        write_toy_dataset(tmp_path / "ds", features=text)
        if isinstance(expected, str):
            expected = f"{tmp_path / 'ds' / 'features.csv'}:{expected}"
        else:
            expected = np.array(expected).tobytes()
        assert _load_outcome(tmp_path / "ds") == expected

    def test_one_column_blank_line_is_non_numeric(self, tmp_path):
        write_toy_dataset(tmp_path / "ds", features="1.0\n\n2.0\n",
                          meta={"num_nodes": 3, "num_features": 1, "num_classes": 2})
        with pytest.raises(DatasetFormatError,
                           match=r"features\.csv:2: non-numeric feature entry in ''$"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("entry", ["1_0", "\uff11", "\u0661.5"],
                             ids=["underscore", "fullwidth_digit", "arabic_indic_digit"])
    def test_text_only_float_accepts_is_rejected_at_its_line(self, tmp_path, entry):
        write_toy_dataset(tmp_path / "ds", features=f"1.0,2.0\n3.5,{entry}\n0.0,1e-3\n")
        with pytest.raises(DatasetFormatError,
                           match=r"features\.csv:2: non-numeric feature entry in '3\.5,"):
            load_dataset(tmp_path / "ds")

    def test_ascii_separators_read_as_blanks(self, tmp_path):
        write_toy_dataset(tmp_path / "ds",
                          features="1.0\x1c,\x1f2.0\n\x1d3.5,-0.25\x1e\n0.0,1e-3\n")
        assert load_dataset(tmp_path / "ds").features.tobytes() == np.array(WELL_FORMED).tobytes()

    def test_well_formed_rows_take_one_loadtxt_pass(self, tmp_path, monkeypatch):
        shapes = []

        def spy(*args, **kwargs):
            features = loadtxt(*args, **kwargs)
            shapes.append(features.shape)
            return features

        loadtxt = np.loadtxt
        write_toy_dataset(tmp_path / "ds")
        monkeypatch.setattr("acgl.datasets.np.loadtxt", spy)
        assert load_dataset(tmp_path / "ds").features[1, 1] == -0.25
        assert shapes == [(3, 2)]

    def test_huge_feature_count_named_before_allocating(self, tmp_path):
        write_toy_dataset(tmp_path / "ds", meta={"num_nodes": 3, "num_features": 10**18,
                                                 "num_classes": 2})
        with pytest.raises(DatasetFormatError,
                           match=r"features\.csv:1: expected 1000000000000000000 columns, got 2"):
            load_dataset(tmp_path / "ds")


# Reals that a formatter most easily gets wrong: signed zeros, subnormals
# (smallest, largest) and the ends of the double range.
EDGE_REALS = (0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1.7976931348623157e308)


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 4),
           num_classes=st.integers(1, 4))
    def test_identity_on_drawn_graphs(self, data, n, d, num_classes):
        """Any finite reals (signed zeros, subnormals, +-1e308) and any edge set."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        cells = data.draw(st.lists(st.one_of(st.sampled_from(EDGE_REALS),
                                             st.floats(allow_nan=False, allow_infinity=False)),
                                   min_size=n * d, max_size=n * d))
        labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
        split = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        g = Graph(
            num_nodes=n, edges=canonical_edges(np.asarray(edges, dtype=np.int64), n),
            features=np.asarray(cells, dtype=np.float64).reshape(n, d),
            labels=np.asarray(labels), train_mask=split == 0, val_mask=split == 1,
            test_mask=split == 2, num_classes=num_classes,
        )
        with tempfile.TemporaryDirectory() as root:
            save_dataset(g, root)
            back = load_dataset(root)
        assert back.features.tobytes() == g.features.tobytes()
        assert (back.num_nodes, back.num_classes) == (g.num_nodes, g.num_classes)
        for name in ("edges", "labels", "train_mask", "val_mask", "test_mask"):
            np.testing.assert_array_equal(getattr(back, name), getattr(g, name), err_msg=name)


GOLDEN_DATASET = Path(__file__).parent / "golden" / "dataset"


def test_save_dataset_matches_golden_files(tmp_path):
    """The five files ``save_dataset`` writes, byte for byte, with all four split tags."""
    g = generate_synthetic(3, 5, 2, 0.5, seed=1)
    unlabelled = np.arange(g.num_nodes) == int(np.flatnonzero(g.train_mask)[0])
    g = dataclasses.replace(g, train_mask=g.train_mask & ~unlabelled)  # one "none" row
    save_dataset(g, tmp_path)
    names = ("edges.csv", "features.csv", "labels.csv", "split.csv", "meta.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        golden = (GOLDEN_DATASET / name).read_bytes()
        assert (tmp_path / name).read_bytes() == golden, f"{name} deviates from the golden copy"


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
