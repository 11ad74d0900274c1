import dataclasses
import io
import json
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgl.datasets import SPLIT_CODES, DatasetFormatError, load_dataset, save_dataset
from acgl.graph import Graph
from acgl.synthetic import generate_synthetic

from conftest import random_graph

TOY_FEATURES = np.array([[1.0, 2.0], [3.5, -0.25], [0.0, 1e-3]])
# The four arrays of a three-node, two-class dataset; the edges are canonical.
TOY_ARRAYS = {
    "edges.npy": np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64),
    "features.npy": TOY_FEATURES,
    "labels.npy": np.array([0, 1, 1], dtype=np.int64),
    "split.npy": np.array([0, 1, 2], dtype=np.int64),
}
ARRAY_FILES = tuple(TOY_ARRAYS)
TOY_META = {"format_version": 3, "num_nodes": 3, "num_features": 2, "num_classes": 2}


def write_toy_dataset(root, meta=TOY_META, **arrays):
    """The toy dataset; a keyword (``edges``, ``features``, ``labels``, ``split``) replaces
    that file with an array to save or with the file's bytes."""
    root.mkdir(parents=True, exist_ok=True)
    for name, toy in TOY_ARRAYS.items():
        content = arrays.get(name.removesuffix(".npy"), toy)
        (root / name).write_bytes(content if isinstance(content, bytes) else npy(content))
    (root / "meta.json").write_text(json.dumps(meta))
    return root


def npy(array, version=None):
    """The bytes of ``array`` in numpy's .npy format; header version as ``np.save`` picks by default."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array), version=version)
    return buf.getvalue()


def big_endian(array):
    return array.astype(array.dtype.newbyteorder(">"))


# Ways to lay out an array in its .npy file that load to the same array.
LAYOUTS = {"native": lambda a: a, "big_endian": big_endian, "fortran": np.asfortranarray,
           "big_endian_fortran": lambda a: np.asfortranarray(big_endian(a))}


def load_error(root, name, **arrays):
    """The message of the toy dataset with ``arrays`` replaced, after "``root/name``: "."""
    write_toy_dataset(root, **arrays)
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(root)
    prefix = f"{root / name}: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix):]


class TestLoad:
    def test_toy_fixture(self, tmp_path):
        write_toy_dataset(tmp_path / "toy")
        g = load_dataset(tmp_path / "toy")
        assert g.num_nodes == 3
        assert g.feature_dim == 2
        assert g.num_classes == 2
        assert g.num_edges == 3
        assert g.train_mask.tolist() == [True, False, False]

    def test_edge_out_of_range(self, tmp_path):
        edges = np.array([[0, 1], [0, 99]])
        assert load_error(tmp_path / "bad", "edges.npy", edges=edges) == \
            "row 1 holds [0, 99], outside [0, 3)"

    def test_label_out_of_range(self, tmp_path):
        assert load_error(tmp_path / "bad", "labels.npy", labels=np.array([0, 1, 7])) == \
            "row 2 holds 7, outside [0, 2)"

    def test_parse_error_carries_line_number(self, tmp_path):
        # Each integer array names its first bad row, 0-based like node ids.
        bad = {"edges": np.array([[0, 1], [3, 0], [0, -1]]), "labels": np.array([0, -1, 5]),
               "split": np.array([0, 4, -1])}
        first = {"edges": "[3, 0]", "labels": "-1", "split": "4"}
        for key, array in bad.items():
            assert load_error(tmp_path / key, f"{key}.npy", **{key: array}).startswith(
                f"row 1 holds {first[key]}, outside [0, ")

    def test_malformed_edge_line(self, tmp_path):
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        assert load_error(tmp_path / "bad", "edges.npy", edges=edges) == \
            "<i8 array of shape (2, 3), expected int64 of shape (E, 2)"

    def test_unknown_split_tag(self, tmp_path):
        assert load_error(tmp_path / "bad", "split.npy", split=np.array([0, 4, 2])) == \
            "row 1 holds 4, outside [0, 4)"

    def test_padded_split_tags_are_stripped(self, tmp_path):
        # Version 2 read its split tags stripped; the README's conversion keeps them.
        write_text_dataset(load_dataset(write_toy_dataset(tmp_path / "toy")), tmp_path / "v2", 2)
        (tmp_path / "v2" / "split.csv").write_text(" train\nval\t\r\nnone \n")
        readme_conversion()(tmp_path / "v2")
        g = load_dataset(tmp_path / "v2")
        assert g.split.tolist() == [0, 1, 3]

    def test_split_codes_index_train_val_test_none(self, tmp_path):
        assert SPLIT_CODES == ("train", "val", "test", "none")
        write_toy_dataset(tmp_path / "toy", split=np.array([3, 2, 1]))
        g = load_dataset(tmp_path / "toy")
        assert g.split.tolist() == [3, 2, 1]

    def test_missing_file(self, tmp_path):
        for name in (*TOY_ARRAYS, "meta.json"):
            write_toy_dataset(tmp_path / name)
            (tmp_path / name / name).unlink()
            with pytest.raises(DatasetFormatError, match=f"{name}: missing dataset file"):
                load_dataset(tmp_path / name)

    def test_node_count_past_int64_edge_keys_is_named_before_any_array_is_read(self, tmp_path):
        root = write_toy_dataset(tmp_path / "toy", meta={**TOY_META, "num_nodes": 3_037_000_500})
        for name in ARRAY_FILES:
            (root / name).unlink()
        with pytest.raises(ValueError, match="^num_nodes=3037000500 exceeds 3037000499, "):
            load_dataset(root)

    def test_directed_duplicates_are_merged(self, tmp_path):
        write_toy_dataset(tmp_path / "toy", edges=np.array([[0, 1], [1, 0], [0, 1], [2, 1]]))
        g = load_dataset(tmp_path / "toy")
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])


def npz(array):
    """The bytes of ``array`` in an ``np.savez`` archive."""
    buf = io.BytesIO()
    np.savez(buf, array=array)
    return buf.getvalue()


def csv(array):
    """The bytes of ``array`` as comma-separated text."""
    buf = io.BytesIO()
    np.savetxt(buf, array, delimiter=",")
    return buf.getvalue()


CORRUPT = "not a .npy array, or its header is corrupt"
# What each array file is expected to hold, as a dtype or shape error names it.
EXPECTED = {"edges.npy": "int64 of shape (E, 2)", "features.npy": "float64 of shape (3, 2)",
            "labels.npy": "int64 of shape (3,)", "split.npy": "int64 of shape (3,)"}


def size_error(array):
    return f"the data after the header is not {array.nbytes} bytes"


def wrong(array):
    """A well-formed .npy file of the wrong dtype or shape, and its error."""
    return npy(array), f"{array.dtype.str} array of shape {array.shape}, expected {{expected}}"


# Each case maps the toy array of a file to the bytes put in its place and the error
# after "<file>: ", or to None where the change is no corruption for that file.
BAD_ARRAY_FILES = {
    "empty": lambda a: (b"", CORRUPT),
    "truncated": lambda a: (npy(a)[:-1], size_error(a)),
    "header_only": lambda a: (npy(a)[:npy(a).index(b"\n") + 1], size_error(a)),
    "trailing_byte": lambda a: (npy(a) + b"\0", size_error(a)),
    # numpy 2.4's header parser raises tokenize.TokenError here, SyntaxError on the
    # descr ',f8' and TypeError on a bytes key among str keys.
    "header_brace_nul": lambda a: (npy(a).replace(b"{", b"\0", 1), CORRUPT),
    "header_bad_descr": lambda a: (npy(a).replace(f"'{a.dtype.str}'".encode(), b"',f8'", 1),
                                   CORRUPT),
    "header_bytes_key": lambda a: (npy(a).replace(b", 'fortran", b",B'fortran", 1), CORRUPT),
    "bad_magic": lambda a: (b"\x93NUMPX" + npy(a)[6:], CORRUPT),
    "version_3": lambda a: (npy(a)[:6] + b"\x03\x00" + npy(a)[8:], CORRUPT),
    "npz": lambda a: (npz(a), CORRUPT),
    "pickle": lambda a: (pickle.dumps(a), CORRUPT),
    "csv_text": lambda a: (csv(a), CORRUPT),
    "float32": lambda a: wrong(a.astype("<f4")),
    "int64": lambda a: wrong(a.astype("<i8")) if a.dtype.kind == "f" else None,
    "float64": lambda a: wrong(a.astype("<f8")) if a.dtype.kind == "i" else None,
    "uint64": lambda a: wrong(a.astype("<u8")) if a.dtype.kind == "i" else None,
    "object": lambda a: wrong(a.astype(object)),
    "structured": lambda a: wrong(np.zeros(len(a), dtype=[("a", "<f8"), ("b", "<f8")])),
    "transposed": lambda a: wrong(a.T.copy()) if a.ndim == 2 else None,
    "flat": lambda a: wrong(a.ravel()) if a.ndim == 2 else None,
    "column": lambda a: wrong(a[:, None]) if a.ndim == 1 else None,
    # edges.npy may hold any number of rows.
    "one_row_short": lambda a: wrong(a[:-1]) if a is not TOY_ARRAYS["edges.npy"] else None,
}


class TestFeatureFile:
    """features.npy, and each other array file by the same rule, is its array or one
    DatasetFormatError that names the file, never a traceback."""

    @pytest.mark.parametrize("case", sorted(BAD_ARRAY_FILES))
    def test_bad_file_is_named(self, tmp_path, case):
        checked = 0
        for name, toy in TOY_ARRAYS.items():
            bad = BAD_ARRAY_FILES[case](toy)
            if bad is not None:
                content, detail = bad
                assert load_error(tmp_path / name, name, **{name.removesuffix(".npy"): content}) \
                    == detail.format(expected=EXPECTED[name]), name
                checked += 1
        assert checked

    def test_missing_file(self, tmp_path):
        write_toy_dataset(tmp_path / "ds")
        (tmp_path / "ds" / "features.npy").unlink()
        with pytest.raises(DatasetFormatError, match=r"features\.npy: missing dataset file"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, tmp_path, bad):
        features = TOY_FEATURES.copy()
        features[1, 1] = features[2, 0] = bad
        assert load_error(tmp_path / "ds", "features.npy", features=features) == \
            "non-finite feature in row 1"

    @pytest.mark.parametrize("layout", [
        *(pytest.param(LAYOUTS[name], id=name) for name in ("big_endian", "fortran",
                                                            "big_endian_fortran")),
        pytest.param(lambda a: npy(a, version=(2, 0)), id="header_2_0"),
    ])
    def test_accepted_layouts_load_as_native_c_order_with_the_same_bytes(self, tmp_path, layout):
        write_toy_dataset(tmp_path / "ds", **{name.removesuffix(".npy"): layout(toy)
                                             for name, toy in TOY_ARRAYS.items()})
        g = load_dataset(tmp_path / "ds")
        for name in ("edges", "features", "labels", "split"):
            array = getattr(g, name)
            assert array.dtype.isnative and array.flags.c_contiguous, name
            assert array.tobytes() == TOY_ARRAYS[f"{name}.npy"].tobytes(), name

    def test_huge_feature_count_named_before_allocating(self, tmp_path):
        # Were n x d allocated or read, 10**18 columns would raise MemoryError, not this.
        meta = {**TOY_META, "num_features": 10**18}
        assert load_error(tmp_path / "a", "features.npy", meta=meta) == \
            "<f8 array of shape (3, 2), expected float64 of shape (3, 1000000000000000000)"
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                                   "shape": (3, 10**18)})
        assert load_error(tmp_path / "b", "features.npy", meta=meta,
                          features=buf.getvalue() + TOY_FEATURES.tobytes()) == \
            "the data after the header is not 24000000000000000000 bytes"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_conversion():
    """``convert_to_v3`` as the README's fenced python block defines it."""
    block, = (m.group(1) for m in re.finditer(r"^```python\n(.*?)^```$", README.read_text(),
                                              re.MULTILINE | re.DOTALL)
              if "def convert_to_v3" in m.group(1))
    scope = {}
    exec(block, scope)
    return scope["convert_to_v3"]


def write_text_dataset(graph, root, version):
    """``graph`` in dataset format version 1 or 2, as those versions wrote it: edges,
    labels and split tags as text lines; the features as ``repr`` text (1) or .npy (2)."""
    root.mkdir(parents=True)
    tags = np.array(SPLIT_CODES, dtype=object)[graph.split]
    lines = {"edges.csv": [f"{u},{v}" for u, v in graph.edges.tolist()],
             "labels.csv": graph.labels.tolist(), "split.csv": tags.tolist()}
    if version == 1:
        lines["features.csv"] = [",".join(map(repr, row)) for row in graph.features.tolist()]
    else:
        np.save(root / "features.npy", graph.features)
    for name, rows in lines.items():
        (root / name).write_text("".join(f"{row}\n" for row in rows))
    meta = {"format_version": version, "num_nodes": graph.num_nodes,
            "num_features": graph.feature_dim, "num_classes": graph.num_classes,
            "num_edges": graph.num_edges, **({"format": "csv-dir"} if version == 1 else {})}
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


class TestFormatVersion:
    @pytest.mark.parametrize("version", [None, 1, 2, 2.0, 3.0, "3", True])
    def test_other_versions_name_the_version_and_the_conversion(self, tmp_path, version):
        meta = {"num_nodes": 3, "num_features": 2, "num_classes": 2}
        if version is not None:
            meta["format_version"] = version
        write_toy_dataset(tmp_path / "ds", meta=meta)
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value) == (
            f"{tmp_path / 'ds' / 'meta.json'}: format_version {version!r}, expected 3; convert a "
            "version 1 or 2 directory with convert_to_v3 from README.md's Dataset format section")

    @pytest.mark.parametrize("d", [1, 3])
    def test_readme_conversion_of_a_version_1_directory_keeps_every_bit(self, tmp_path, d):
        # And of a version-2 directory, which kept only the features as .npy.
        g = generate_synthetic(3, 5, d, 0.8, seed=2)
        features = g.features.copy()
        features.ravel()[:len(EDGE_REALS)] = EDGE_REALS
        g = dataclasses.replace(g, features=features, split=with_one_none_row(g))
        for version in (1, 2):
            root = tmp_path / f"v{version}"
            write_text_dataset(g, root, version)
            with pytest.raises(DatasetFormatError, match=f"format_version {version}, expected 3"):
                load_dataset(root)
            readme_conversion()(root)
            assert sorted(p.name for p in root.iterdir()) == sorted((*ARRAY_FILES, "meta.json"))
            assert_same_graph(load_dataset(root), g)


def with_one_none_row(g):
    """``g``'s split codes with its first train node moved to "none"."""
    split = g.split.copy()
    split[np.flatnonzero(g.train_mask)[0]] = SPLIT_CODES.index("none")
    return split


def assert_same_graph(back, g):
    """Every array of ``back`` equals ``g``'s bit for bit, and so do the counts."""
    assert (back.num_nodes, back.feature_dim, back.num_classes) == \
        (g.num_nodes, g.feature_dim, g.num_classes)
    for name in ("edges", "features", "labels", "split"):
        ours, theirs = getattr(back, name), getattr(g, name)
        assert (ours.dtype, ours.shape, ours.tobytes()) == \
            (theirs.dtype, theirs.shape, theirs.tobytes()), name


# Reals a text format most easily gets wrong: signed zeros, subnormals
# (smallest, largest) and the ends of the double range.
EDGE_REALS = (0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1.7976931348623157e308)


@st.composite
def drawn_graphs(draw):
    """Any finite reals (signed zeros, subnormals, +-1e308) and any edge set, with 1-12 nodes."""
    n, d, num_classes = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cells = draw(st.lists(st.one_of(st.sampled_from(EDGE_REALS),
                                    st.floats(allow_nan=False, allow_infinity=False)),
                          min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    split = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return Graph(
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        features=np.asarray(cells, dtype=np.float64).reshape(n, d),
        labels=np.asarray(labels), split=split, num_classes=num_classes,
    )


EDGELESS = Graph(edges=np.zeros((0, 2), dtype=np.int64), features=np.array([[-0.0], [5e-324]]),
                 labels=np.array([1, 0]), split=np.array([0, 2]), num_classes=2)


class TestRoundTrip:
    def test_identity_on_random_graph(self, tmp_path):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 20, num_classes=4, d=5)
        save_dataset(g, tmp_path / "ds")
        assert_same_graph(load_dataset(tmp_path / "ds"), g)

    def test_identity_on_synthetic(self, tmp_path):
        g = generate_synthetic(3, 5, 4, 0.8, seed=21)
        save_dataset(g, tmp_path / "ds")
        assert_same_graph(load_dataset(tmp_path / "ds"), g)

    def test_extreme_reals_survive(self, tmp_path):
        feats = np.array([[1.0 / 3.0, 1e-300], [np.pi, -2.5e17]])
        g = Graph(
            edges=np.array([[0, 1]]), features=feats,
            labels=np.array([0, 1]), split=np.array([0, 2]), num_classes=2,
        )
        save_dataset(g, tmp_path / "ds")
        assert_same_graph(load_dataset(tmp_path / "ds"), g)

    @settings(max_examples=60, deadline=None)
    @given(g=drawn_graphs(), layouts=st.lists(st.sampled_from(sorted(LAYOUTS)),
                                              min_size=len(ARRAY_FILES), max_size=len(ARRAY_FILES)))
    @example(g=EDGELESS, layouts=["native"] * len(ARRAY_FILES))
    @example(g=EDGELESS, layouts=["big_endian_fortran"] * len(ARRAY_FILES))
    def test_identity_on_drawn_graphs(self, g, layouts):
        """Each array file is rewritten in a drawn layout before the load."""
        with tempfile.TemporaryDirectory() as root:
            save_dataset(g, root)
            for name, layout in zip(ARRAY_FILES, layouts):
                path = Path(root) / name
                np.save(path, LAYOUTS[layout](np.load(path)))
            back = load_dataset(root)
        assert_same_graph(back, g)


GOLDEN_DATASET = Path(__file__).parent / "golden" / "dataset"


def test_save_dataset_matches_golden_files(tmp_path):
    """The five files ``save_dataset`` writes, byte for byte, with all four split codes."""
    g = generate_synthetic(3, 5, 2, 0.5, seed=1)
    g = dataclasses.replace(g, split=with_one_none_row(g))
    save_dataset(g, tmp_path)
    names = (*ARRAY_FILES, "meta.json")
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
