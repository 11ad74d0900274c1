import dataclasses
import io
import json
import pickle
import re
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

TOY_FEATURES = np.array([[1.0, 2.0], [3.5, -0.25], [0.0, 1e-3]])


def write_toy_dataset(root, edges="0,1\n1,2\n", labels="0\n1\n1\n", features=TOY_FEATURES,
                      split="train\nval\ntest\n", meta=None):
    """A three-node dataset; ``features`` is an array to save, or the bytes of features.npy."""
    root.mkdir(parents=True, exist_ok=True)
    if meta is None:
        meta = {"format_version": 2, "num_nodes": 3, "num_features": 2, "num_classes": 2}
    (root / "edges.csv").write_text(edges)
    (root / "features.npy").write_bytes(features if isinstance(features, bytes) else npy(features))
    (root / "labels.csv").write_text(labels)
    (root / "split.csv").write_text(split)
    (root / "meta.json").write_text(json.dumps(meta))


def npy(array, version=None):
    """The bytes of ``array`` in numpy's .npy format; header version as ``np.save`` picks by default."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array), version=version)
    return buf.getvalue()


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
        write_toy_dataset(tmp_path / "bad", labels="0\nnot numeric\n1\n")
        with pytest.raises(DatasetFormatError, match=r"labels\.csv:2: non-integer label"):
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


def npz(array):
    """The bytes of ``array`` in an ``np.savez`` archive."""
    buf = io.BytesIO()
    np.savez(buf, features=array)
    return buf.getvalue()


TOY_NPY = npy(TOY_FEATURES)
# Each file in place of a toy dataset's features.npy, and the error after "features.npy: ".
CORRUPT = "not a .npy array, or its header is corrupt"
NOT_FLOAT64 = "{} array of shape {}, expected float64 of shape (3, 2) from meta.json"
BAD_FEATURE_FILES = {
    "empty": (b"", CORRUPT),
    "truncated": (TOY_NPY[:-1], "the data after the header is not 48 bytes"),
    "header_only": (TOY_NPY[:TOY_NPY.index(b"\n") + 1], "the data after the header is not 48 bytes"),
    "trailing_byte": (TOY_NPY + b"\0", "the data after the header is not 48 bytes"),
    # numpy 2.4's header parser raises tokenize.TokenError here, SyntaxError on the
    # descr ',f8' and TypeError on a bytes key among str keys.
    "header_brace_nul": (TOY_NPY.replace(b"{", b"\0", 1), CORRUPT),
    "header_bad_descr": (TOY_NPY.replace(b"'<f8'", b"',f8'", 1), CORRUPT),
    "header_bytes_key": (TOY_NPY.replace(b", 'fortran", b",B'fortran", 1), CORRUPT),
    "bad_magic": (b"\x93NUMPX" + TOY_NPY[6:], CORRUPT),
    "version_3": (TOY_NPY[:6] + b"\x03\x00" + TOY_NPY[8:], CORRUPT),
    "npz": (npz(TOY_FEATURES), CORRUPT),
    "pickle": (pickle.dumps(TOY_FEATURES), CORRUPT),
    "csv_text": (b"1.0,2.0\n3.5,-0.25\n0.0,1e-3\n", CORRUPT),
    "float32": (npy(TOY_FEATURES.astype("<f4")), NOT_FLOAT64.format("<f4", "(3, 2)")),
    "int64": (npy(np.arange(6).reshape(3, 2)), NOT_FLOAT64.format("<i8", "(3, 2)")),
    "object": (npy(TOY_FEATURES.astype(object)), NOT_FLOAT64.format("|O", "(3, 2)")),
    "structured": (npy(np.zeros(3, dtype=[("a", "<f8"), ("b", "<f8")])),
                   NOT_FLOAT64.format("|V16", "(3,)")),
    "transposed": (npy(TOY_FEATURES.T.copy()), NOT_FLOAT64.format("<f8", "(2, 3)")),
    "flat": (npy(TOY_FEATURES.ravel()), NOT_FLOAT64.format("<f8", "(6,)")),
}


class TestFeatureFile:
    """features.npy is (N, d) float64 or one DatasetFormatError that names it, never a traceback."""

    def load_error(self, root, content, meta=None):
        write_toy_dataset(root, features=content, meta=meta)
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(root)
        prefix = f"{root / 'features.npy'}: "
        assert str(info.value).startswith(prefix)
        return str(info.value)[len(prefix):]

    @pytest.mark.parametrize("name", sorted(BAD_FEATURE_FILES))
    def test_bad_file_is_named(self, tmp_path, name):
        content, detail = BAD_FEATURE_FILES[name]
        assert self.load_error(tmp_path / "ds", content) == detail

    def test_missing_file(self, tmp_path):
        write_toy_dataset(tmp_path / "ds")
        (tmp_path / "ds" / "features.npy").unlink()
        with pytest.raises(DatasetFormatError, match=r"features\.npy: missing dataset file"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, tmp_path, bad):
        features = TOY_FEATURES.copy()
        features[1, 1] = features[2, 0] = bad
        assert self.load_error(tmp_path / "ds", features) == "non-finite feature in row 1"

    @pytest.mark.parametrize("layout", [
        pytest.param(lambda a: a.astype(">f8"), id="big_endian"),
        pytest.param(np.asfortranarray, id="fortran"),
        pytest.param(lambda a: np.asfortranarray(a.astype(">f8")), id="big_endian_fortran"),
        pytest.param(lambda a: npy(a, version=(2, 0)), id="header_2_0"),
    ])
    def test_accepted_layouts_load_as_native_c_order_with_the_same_bytes(self, tmp_path, layout):
        write_toy_dataset(tmp_path / "ds", features=layout(TOY_FEATURES))
        features = load_dataset(tmp_path / "ds").features
        assert features.dtype == np.float64 and features.dtype.isnative
        assert features.flags.c_contiguous
        assert features.tobytes() == TOY_FEATURES.tobytes()

    def test_huge_feature_count_named_before_allocating(self, tmp_path):
        # Were n x d allocated or read, 10**18 columns would raise MemoryError, not this.
        meta = {"format_version": 2, "num_nodes": 3, "num_features": 10**18, "num_classes": 2}
        assert self.load_error(tmp_path / "ds", TOY_FEATURES, meta) == \
            "<f8 array of shape (3, 2), expected float64 of shape (3, 1000000000000000000) from meta.json"
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                                   "shape": (3, 10**18)})
        assert self.load_error(tmp_path / "ds", buf.getvalue() + TOY_FEATURES.tobytes(), meta) == \
            "the data after the header is not 24000000000000000000 bytes"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_conversion():
    """``convert_v1_to_v2`` as the README's fenced python block defines it."""
    block, = (m.group(1) for m in re.finditer(r"^```python\n(.*?)^```$", README.read_text(),
                                              re.MULTILINE | re.DOTALL)
              if "def convert_v1_to_v2" in m.group(1))
    scope = {}
    exec(block, scope)
    return scope["convert_v1_to_v2"]


def write_v1_dataset(graph, root):
    """``graph`` in dataset format version 1: features.csv holds each row's reals as ``repr``."""
    save_dataset(graph, root)
    (root / "features.npy").unlink()
    (root / "features.csv").write_text(
        "".join(",".join(map(repr, row)) + "\n" for row in graph.features.tolist()))
    meta = {**json.loads((root / "meta.json").read_text()), "format": "csv-dir", "format_version": 1}
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


class TestFormatVersion:
    @pytest.mark.parametrize("version", [None, 1, 3, 2.0, "2", True])
    def test_other_versions_name_the_version_and_the_conversion(self, tmp_path, version):
        meta = {"num_nodes": 3, "num_features": 2, "num_classes": 2}
        if version is not None:
            meta["format_version"] = version
        write_toy_dataset(tmp_path / "ds", meta=meta)
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value) == (
            f"{tmp_path / 'ds' / 'meta.json'}: format_version {version!r}, expected 2; convert with "
            'np.save("features.npy", np.loadtxt("features.csv", delimiter=",", ndmin=2)) '
            'and "format_version": 2')

    @pytest.mark.parametrize("d", [1, 3])
    def test_readme_conversion_of_a_version_1_directory_keeps_every_bit(self, tmp_path, d):
        g = generate_synthetic(3, 5, d, 0.8, seed=2)
        features = g.features.copy()
        features.ravel()[:len(EDGE_REALS)] = EDGE_REALS
        g = dataclasses.replace(g, features=features)
        write_v1_dataset(g, tmp_path / "ds")
        with pytest.raises(DatasetFormatError, match="format_version 1, expected 2"):
            load_dataset(tmp_path / "ds")
        readme_conversion()(tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.features.tobytes() == g.features.tobytes()
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.labels, g.labels)


# Reals a text format most easily gets wrong: signed zeros, subnormals
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
            edges=np.array([[0, 1]]), features=feats,
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
            edges=canonical_edges(np.asarray(edges, dtype=np.int64), n),
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
    names = ("edges.csv", "features.npy", "labels.csv", "split.csv", "meta.json")
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
