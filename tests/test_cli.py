import contextlib
import dataclasses
import inspect
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acgl.backbone import BackboneConfig
from acgl.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, build_parser, main
from acgl.config import SCHEMA
from acgl.datasets import SPLIT_CODES, DatasetFormatError, load_dataset, save_dataset
from acgl.harness import ExpanderConfig, ExperimentConfig, run_experiment
from acgl.metrics import matrix_to_csv
from acgl.synthetic import SyntheticSpec, generate_synthetic, intra_class_fraction

from conftest import SWEEP_FIXTURE_LINES, count_splits

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"

# Small, fast config used by the CLI-level golden and determinism checks.
# Deliberately noisy enough that accuracies are non-trivial fractions.
RUN_CONFIG = """
synthetic.classes = 4
synthetic.nodes_per_class = 30
synthetic.features = 12
synthetic.homophily = 0.7
synthetic.class_sep = 0.6
plan.base_classes = 2
plan.increment = 1
backbone.hidden = 16
backbone.epochs = 20
backbone.lr = 0.01
expander.dim = 32
gamma = 1.0
"""


@pytest.fixture
def run_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CONFIG)
    return path


class TestRun:
    def test_valid_config_writes_three_artifacts(self, run_config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(run_config_file), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("report.json", "matrix.csv", "heatmap.svg"):
            assert (out / name).is_file()
        stdout = capsys.readouterr().out
        assert "AP=" in stdout and "AF=" in stdout

    def test_gamma_zero_is_config_error_naming_field(self, run_config_file, tmp_path, capsys):
        code = main(["run", "--config", str(run_config_file),
                     "--out", str(tmp_path / "o"), "--set", "gamma=0"])
        assert code == EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("gamma", "inf"),
        ("gamma", "-inf"),
        ("backbone.lr", "inf"),
        ("synthetic.class_sep", "nan"),
        ("seed", "-1"),
        ("seed.data", "5"),                  # removed keys: every seed derives from `seed`
        ("seed.backbone", "5"),
        ("seed.expander", "5"),
        ("plan.shuffle_classes", "true"),    # removed key: classes run in ascending order
        ("synthetic.features", "0"),
        ("synthetic.avg_degree", "0"),       # removed key: the mean degree is fixed at 4.0
        ("backbone.weight_decay", "-1"),
        ("plan.base_classes", "9"),          # the synthetic config has 4 classes
        ("plan.increment", "7"),             # at most 4 - 2 classes are left after the base
    ])
    def test_bad_value_is_config_error_naming_key(self, run_config_file, tmp_path, capsys,
                                                  key, value):
        out = tmp_path / "o"
        code = main(["run", "--config", str(run_config_file), "--out", str(out),
                     "--set", f"{key}={value}"])
        assert code == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", [
        "eval.union_graph", "expander.use_adjacency", "features.row_normalize",
    ])
    def test_removed_variant_key_is_config_error(self, run_config_file, tmp_path, capsys, key):
        code = main(["run", "--config", str(run_config_file), "--out", str(tmp_path / "o"),
                     "--set", f"{key}=true"])
        assert code == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("gamma = 1.0  # \xe9t\xe9\n".encode("latin-1"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "latin1.cfg" in capsys.readouterr().err

    def test_bad_dataset_is_runtime_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        code = main(["run", "--out", str(tmp_path / "o"),
                     "--set", f"dataset.path={tmp_path / 'empty'}"])
        assert code == EXIT_RUNTIME

    def test_seed_42_reproduces_golden_matrix(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(run_config_file), "--out", str(out),
                     "--set", "seed=42"])
        assert code == EXIT_OK
        golden = (GOLDEN_DIR / "matrix.csv").read_bytes()
        assert (out / "matrix.csv").read_bytes() == golden

    @pytest.mark.parametrize("seed", [0, 7])
    def test_library_seed_reproduces_cli_seed(self, run_config_file, tmp_path, seed):
        # RUN_CONFIG written out as the library config, with the one seed.
        result = run_experiment(ExperimentConfig(
            synthetic=SyntheticSpec(classes=4, nodes_per_class=30, features=12, homophily=0.7,
                                    class_sep=0.6),
            c0=2, k=1, gamma=1.0,
            backbone=BackboneConfig(hidden=16, epochs=20, lr=0.01),
            expander=ExpanderConfig(dim=32),
            seed=seed,
        ))
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_config_file), "--out", str(out),
                     "--set", f"seed={seed}"]) == EXIT_OK
        assert (out / "matrix.csv").read_bytes() == matrix_to_csv(result.matrix).encode()

    def test_two_runs_byte_identical_matrix(self, run_config_file, tmp_path):
        for name in ("a", "b"):
            assert main(["run", "--config", str(run_config_file),
                         "--out", str(tmp_path / name), "--set", "seed=7"]) == EXIT_OK
        assert (tmp_path / "a" / "matrix.csv").read_bytes() == \
            (tmp_path / "b" / "matrix.csv").read_bytes()

    def test_report_echoes_config_schema_keys(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(run_config_file), "--out", str(out), "--set", "seed=5"])
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 5
        assert doc["config"]["synthetic.nodes_per_class"] == 30
        # Every set schema key and nothing else; unset ones are omitted.
        assert set(doc["config"]) == set(SCHEMA) - {"dataset.path"}

    def test_run_from_on_disk_dataset(self, tmp_path):
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8",
                     "--seed", "9"]) == EXIT_OK
        out = tmp_path / "out"
        code = main(["run", "--out", str(out),
                     "--set", f"dataset.path={ds}",
                     "--set", "backbone.hidden=8",
                     "--set", "backbone.epochs=5",
                     "--set", "expander.dim=16"])
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["matrix"]) == 3  # c0 defaults to ceil(4/2), k=1

    def test_nan_feature_is_runtime_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8",
                     "--seed", "9"]) == EXIT_OK
        # Poison one test node of the last class: it never reaches the
        # backbone's training, only the last session's features.
        labels, split = np.load(ds / "labels.npy"), np.load(ds / "split.npy")
        node = int(np.flatnonzero((labels == 3) & (split == SPLIT_CODES.index("test")))[0])
        features = np.load(ds / "features.npy")
        features[node, 0] = np.nan
        np.save(ds / "features.npy", features)
        code = main(["run", "--out", str(tmp_path / "out"),
                     "--set", f"dataset.path={ds}",
                     "--set", "backbone.hidden=8",
                     "--set", "backbone.epochs=5",
                     "--set", "expander.dim=16"])
        assert code == EXIT_RUNTIME
        # Rejected when the graph is built at load, not at predict after training.
        assert f"non-finite feature in row {node}" in capsys.readouterr().err

    def test_session_class_without_train_rows_is_runtime_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8",
                     "--seed", "9"]) == EXIT_OK
        # Move class 3's train nodes to test: session 1 (classes 2 and 3)
        # still has train rows, but none of class 3.
        labels, split = np.load(ds / "labels.npy"), np.load(ds / "split.npy")
        split[(labels == 3) & (split == SPLIT_CODES.index("train"))] = SPLIT_CODES.index("test")
        np.save(ds / "split.npy", split)
        out = tmp_path / "out"
        code = main(["run", "--out", str(out),
                     "--set", f"dataset.path={ds}",
                     "--set", "plan.base_classes=2",
                     "--set", "plan.increment=2",
                     "--set", "backbone.hidden=8",
                     "--set", "backbone.epochs=5",
                     "--set", "expander.dim=16"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "session 1 (classes [2, 3]) has an empty train split for class 3" in err
        assert not out.exists()

    def test_plan_beyond_dataset_classes_is_runtime_error(self, tmp_path, capsys):
        # A dataset's class count is known only after load, so the plan fails at run time.
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8"]) == EXIT_OK
        code = main(["run", "--out", str(tmp_path / "out"),
                     "--set", f"dataset.path={ds}", "--set", "plan.base_classes=9"])
        assert code == EXIT_RUNTIME
        assert "base class count c0=9 must satisfy 1 <= c0 < C=4" in capsys.readouterr().err

    def test_validate_rejects_class_without_nodes_like_run(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8"]) == EXIT_OK
        meta = ds / "meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "num_classes": 10**6}))
        capsys.readouterr()
        line = "error: class 4 has no node; the graph declares 1000000 classes\n"
        assert main(["validate-dataset", "--path", str(ds)]) == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert (out, err) == ("", line)
        code = main(["run", "--out", str(tmp_path / "out"), "--set", f"dataset.path={ds}",
                     "--set", "backbone.hidden=8", "--set", "backbone.epochs=1",
                     "--set", "expander.dim=16"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == line

    def test_class_without_nodes_fails_before_training(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8"]) == EXIT_OK
        meta = ds / "meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "num_classes": 10**6}))
        # Small widths: were the check skipped, a 500,000-class head would be trained.
        code = main(["run", "--out", str(tmp_path / "out"), "--set", f"dataset.path={ds}",
                     "--set", "backbone.hidden=8", "--set", "backbone.epochs=1",
                     "--set", "expander.dim=16"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "error: class 4 has no node; the graph declares 1000000 classes\n"

    @pytest.mark.parametrize("key, value, stage", [
        ("backbone.lr", "1e300", "backbone.gcn_forward: overflow encountered in matmul"),
        ("synthetic.class_sep", "1e300", "backbone._adam_update: overflow encountered"),
        # Finite, but gamma vanishes next to a Gram of about 1e300.
        ("synthetic.class_sep", "1e150", "analytic.align_base: the Gram after a session of"),
    ])
    def test_overflow_is_one_error_line_naming_the_stage(self, run_config_file, tmp_path,
                                                         capsys, key, value, stage):
        code = main(["run", "--config", str(run_config_file), "--out", str(tmp_path / "o"),
                     "--set", f"{key}={value}"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage}")
        assert len(err.splitlines()) == 1

    def test_overflow_in_the_helper_rows_is_one_error_line(self, tmp_path, capsys):
        # Base session: classes 0 and 1, 400 rows x 128 features x hidden 128,
        # so X @ W0 splits at row 192. Only its last row, the base's last node,
        # overflows, and that row is the helper thread's.
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "3",
                     "--nodes-per-class", "200", "--features", "128"]) == EXIT_OK
        capsys.readouterr()
        last_base = int(np.flatnonzero(np.load(ds / "labels.npy") < 2).max())
        features = np.load(ds / "features.npy")
        features[last_base] = 1e308
        np.save(ds / "features.npy", features)
        code = main(["run", "--out", str(tmp_path / "o"), "--set", f"dataset.path={ds}",
                     "--set", "plan.base_classes=2", "--set", "backbone.hidden=128",
                     "--set", "backbone.epochs=1", "--set", "expander.dim=256"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "error: backbone.gcn_forward: overflow encountered in matmul\n"

    @pytest.mark.parametrize("part, stage", [("gram_column", "analytic.align_base"),
                                             ("session_gram_column", "analytic.update_R"),
                                             ("expand_rows", "expander.expand")])
    def test_overflow_in_a_helper_part_names_its_stage(self, run_config_file, tmp_path,
                                                        capsys, monkeypatch, part, stage):
        # Finite rows that overflow only in the part on the helper thread: the
        # last expanded column, which a Gram's right block column holds, in
        # the base's rows or in the session's only, or the last hidden row,
        # which the lower half of expand holds. The base session (two classes
        # of 500 nodes, hidden 128, dim 256) is large enough that both
        # products hand their part to the helper, and the session (one class,
        # 300 train rows) takes update_R's Gram path.
        import acgl.harness as harness

        expand = harness.expand
        expanded = []

        def poisoned(hidden, params):
            if part == "expand_rows":
                hidden = hidden.copy()
                hidden[-1] = 1e308 * np.sign(params.weight[:, 0])  # column 0 sums past max
                return expand(hidden, params)
            rows = expand(hidden, params)
            expanded.append(len(rows))
            # The session's train rows come after the base's train and test rows.
            if part == "gram_column" or len(expanded) == 3:
                rows[:, -1] = 1e160
            return rows

        monkeypatch.setattr(harness, "expand", poisoned)
        calls = count_splits(monkeypatch)
        code = main(["run", "--config", str(run_config_file), "--out", str(tmp_path / "o"),
                     "--set", "synthetic.classes=3", "--set", "synthetic.nodes_per_class=500",
                     "--set", "synthetic.features=128", "--set", "plan.base_classes=2",
                     "--set", "backbone.hidden=128", "--set", "backbone.epochs=1",
                     "--set", "expander.dim=256"])
        assert code == EXIT_RUNTIME
        assert calls
        assert capsys.readouterr().err == f"error: {stage}: overflow encountered in matmul\n"
        if part == "session_gram_column":
            assert expanded == [600, 200, 300]

    def test_out_of_memory_is_runtime_error(self, run_config_file, tmp_path, capsys,
                                            monkeypatch):
        import acgl.harness as harness

        message = "Unable to allocate 23.3 TiB for an array with shape (32, 99999999999)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        # Stands in for numpy refusing a huge `expander.dim`; nothing is allocated.
        monkeypatch.setattr(harness, "init_expander", fail)
        code = main(["run", "--config", str(run_config_file), "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.strip() == f"error: out of memory: {message}"


# At 60 nodes per class a session has 36 train rows, at least d = 32, so
# update_R takes its Gram path; at 30 it takes the tpqrt path.
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nodes=st.sampled_from([30, 60]))
def test_runs_reproduce_at_any_seed(seed, nodes):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(RUN_CONFIG + "backbone.epochs = 5\n")
        outs = [Path(tmp) / name for name in ("a", "b")]
        for out in outs:
            assert main(["run", "--config", str(cfg), "--out", str(out), "--set", f"seed={seed}",
                         "--set", f"synthetic.nodes_per_class={nodes}"]) == EXIT_OK
        a, b = outs
        for name in ("matrix.csv", "heatmap.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        doc_a, doc_b = (json.loads((out / "report.json").read_text()) for out in outs)
        # Wall times differ between runs; only which of them were taken must agree.
        assert set(doc_a.pop("times")) == set(doc_b.pop("times"))
        assert doc_a == doc_b


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "ds"
    save_dataset(generate_synthetic(3, 10, 4, 0.8, seed=5), path)
    return path


@st.composite
def run_config_values(draw, dataset):
    """A small value for every SCHEMA key, often on the edge of its valid range.

    Returns the values and the one key pushed just past its edge, or None.
    """
    hidden = draw(st.integers(1, 6))
    values = {
        "dataset.path": draw(st.sampled_from([None, dataset])),
        "synthetic.classes": draw(st.integers(2, 5)),
        "synthetic.nodes_per_class": draw(st.integers(2, 12)),
        "synthetic.features": draw(st.integers(1, 6)),
        "synthetic.homophily": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "synthetic.class_sep": draw(st.sampled_from([1.0, 0.0, -1.0, 1e150, 1e300])),
        "plan.base_classes": draw(st.sampled_from([0, 1])),
        "plan.increment": 1,
        "backbone.hidden": hidden,
        "backbone.epochs": draw(st.integers(0, 3)),
        "backbone.lr": draw(st.sampled_from([1e-3, 1e300])),
        "backbone.dropout": draw(st.sampled_from([0.0, 0.5, 0.99])),
        "backbone.weight_decay": draw(st.sampled_from([0.0, 5e-4, 1e300])),
        "expander.dim": hidden + draw(st.integers(1, 6)),
        "gamma": draw(st.sampled_from([1e-300, 1e-4, 1.0, 1e300])),
        "seed": draw(st.integers(0, 2**32)),
    }
    past_edge = draw(st.one_of(st.none(), st.sampled_from(sorted(past_edge_values(hidden)))))
    if past_edge is not None:
        values[past_edge] = past_edge_values(hidden)[past_edge]
    return {k: v for k, v in values.items() if v is not None}, past_edge


def past_edge_values(hidden):
    """Each ranged key's first value outside its valid range, for a backbone ``hidden`` wide."""
    return {
        "synthetic.classes": 1, "synthetic.nodes_per_class": 1, "synthetic.features": 0,
        "synthetic.homophily": 1.5, "plan.base_classes": -1,
        "plan.increment": 0, "backbone.hidden": 0, "backbone.epochs": -1,
        "backbone.lr": 0.0, "backbone.dropout": 1.0, "backbone.weight_decay": -1.0,
        "expander.dim": hidden, "gamma": 0.0, "seed": -1,
    }


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_config_exits_cleanly(tiny_dataset, data):
    values, past_edge = data.draw(run_config_values(tiny_dataset))
    assert set(values) | {"dataset.path"} == set(SCHEMA)
    sets = [arg for key, value in values.items() for arg in ("--set", f"{key}={value}")]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--out", str(Path(tmp) / "out"), *sets])
    assert "Traceback" not in err.getvalue()
    if past_edge is None:
        assert code in (EXIT_OK, EXIT_RUNTIME), err.getvalue()
    else:
        assert code == EXIT_CONFIG and past_edge in err.getvalue(), err.getvalue()


# The whole stderr line of each past-edge value on the default config (backbone.hidden = 256),
# of two values past a bound the parser or a derived range sets, of a removed key, and of
# a pair without "=".
CONFIG_ERROR_LINES = {
    "synthetic.classes=1": "config key 'synthetic.classes' must be >= 2 (got 1)",
    "synthetic.nodes_per_class=1": "config key 'synthetic.nodes_per_class' must be >= 2 (got 1)",
    "synthetic.features=0": "config key 'synthetic.features' must be >= 1 (got 0)",
    "synthetic.homophily=1.5": "config key 'synthetic.homophily' must lie in [0, 1] (got 1.5)",
    "synthetic.avg_degree=0.0": "unknown config key 'synthetic.avg_degree'",
    "plan.base_classes=-1": "config key 'plan.base_classes' must be >= 0 (got -1)",
    "plan.increment=0": "config key 'plan.increment' must be >= 1 (got 0)",
    "backbone.hidden=0": "config key 'backbone.hidden' must be >= 1 (got 0)",
    "backbone.epochs=-1": "config key 'backbone.epochs' must be >= 0 (got -1)",
    "backbone.lr=0.0": "config key 'backbone.lr' must be positive (got 0.0)",
    "backbone.dropout=1.0": "config key 'backbone.dropout' must lie in [0, 1) (got 1.0)",
    "backbone.weight_decay=-1.0": "config key 'backbone.weight_decay' must be >= 0 (got -1.0)",
    "backbone.weight_decay=nan": "key 'backbone.weight_decay' expects a finite float, got 'nan'",
    "expander.dim=256": "config key 'expander.dim' must exceed backbone.hidden (got 256)",
    "gamma=0.0": "config key 'gamma' must be finite and positive (got 0.0)",
    "seed=-1": "config key 'seed' must be >= 0 (got -1)",
    "foo": "override must look like key=value, got 'foo'",
}


def test_past_edge_values_cover_every_ranged_key():
    # A key given a range needs an out-of-range value and its error line, or no test tries it.
    values = past_edge_values(SCHEMA["backbone.hidden"].default)
    assert set(values) == set(SCHEMA) - {"dataset.path", "synthetic.class_sep"}
    assert {f"{key}={value}" for key, value in values.items()} <= set(CONFIG_ERROR_LINES)


@pytest.mark.parametrize("with_dataset", [False, True], ids=["synthetic", "dataset"])
@pytest.mark.parametrize("pair", sorted(CONFIG_ERROR_LINES))
def test_config_error_line_is_exact(tiny_dataset, tmp_path, capsys, pair, with_dataset):
    # A key's own range is reported, never a plan it breaks (synthetic.classes=1), and a
    # dataset run reports a bad synthetic.* key as a synthetic run does.
    sets = ["--set", pair] + (["--set", f"dataset.path={tiny_dataset}"] if with_dataset else [])
    code = main(["run", "--out", str(tmp_path / "o"), *sets])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {CONFIG_ERROR_LINES[pair]}\n"


SYNTHETIC_CFG = Path(__file__).resolve().parent.parent / "configs" / "synthetic.cfg"


@pytest.mark.parametrize("command, extra", [
    ("run", ["--set", "expander.dim=notanint"]),
    ("sweep", ["--axis", "feg_dim", "--values", "32,notanint"]),
], ids=["run", "sweep"])
def test_non_integer_for_int_key_line_is_exact(tmp_path, capsys, command, extra):
    code = main([command, "--config", str(SYNTHETIC_CFG), "--out", str(tmp_path / "o"), *extra])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: key 'expander.dim' expects an int, got 'notanint'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, error", [
    ("run", [], "[Errno 17] File exists: '{out}'"),
    ("sweep", ["--axis", "gamma", "--values", "1.0"],
     "[Errno 20] Not a directory: '{out}/point_1.0'"),
    ("gen-synth", [], "[Errno 17] File exists: '{out}'"),
])
def test_out_that_is_a_file_is_one_io_error_line(run_config_file, tmp_path, capsys,
                                                  command, extra, error):
    out = tmp_path / "taken"
    out.write_text("")
    config = [] if command == "gen-synth" else ["--config", str(run_config_file)]
    assert main([command, *config, "--out", str(out), *extra]) == EXIT_IO
    assert capsys.readouterr().err == f"i/o error: {error.format(out=out)}\n"


class TestSweep:
    def test_single_value_sweep_matches_run(self, run_config_file, tmp_path):
        run_out = tmp_path / "run"
        sweep_out = tmp_path / "sweep"
        main(["run", "--config", str(run_config_file), "--out", str(run_out),
              "--set", "gamma=0.5"])
        code = main(["sweep", "--config", str(run_config_file), "--out", str(sweep_out),
                     "--axis", "gamma", "--values", "0.5"])
        assert code == EXIT_OK
        assert (sweep_out / "point_0.5" / "matrix.csv").read_bytes() == \
            (run_out / "matrix.csv").read_bytes()
        assert (sweep_out / "sweep.csv").is_file()
        assert (sweep_out / "sweep.svg").is_file()

    def test_gamma_sweep_shape_on_fixture(self, sweep_config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(sweep_config_file), "--out", str(out),
                     "--axis", "gamma", "--values", "0.0001,0.01,1,100"])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "gamma,ap,af,time_s"
        aps = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        # Over-regularization cannot be the peak of the curve.
        assert aps[100.0] <= max(aps.values())
        assert aps[100.0] <= max(v for g, v in aps.items() if g < 100.0)

    def test_feg_dim_sweep_runs_each_value(self, run_config_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(run_config_file), "--out", str(out),
                     "--axis", "feg_dim", "--values", "32,64,128"])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [32, 64, 128]
        for dim in (32, 64, 128):
            assert (out / f"point_{dim}" / "report.json").is_file()

    def test_bad_axis_value_is_config_error(self, run_config_file, tmp_path, capsys):
        code = main(["sweep", "--config", str(run_config_file),
                     "--out", str(tmp_path / "o"), "--axis", "feg_dim",
                     "--values", "32,notanint"])
        assert code == EXIT_CONFIG
        # Read by the axis key's own parser, so the error is the one `--set` gives.
        assert "key 'expander.dim' expects" in capsys.readouterr().err

    def test_non_finite_value_rejected_before_any_point_runs(self, run_config_file,
                                                             tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(run_config_file), "--out", str(out),
                     "--axis", "gamma", "--values", "1,inf"])
        assert code == EXIT_CONFIG
        assert "'gamma'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, repeated", [
        ("gamma", "0.5,0.50,5e-1", "0.5"),
        ("feg_dim", "32,64,032", "32"),
    ])
    def test_value_repeated_after_cast_rejected(self, run_config_file, tmp_path, capsys,
                                                axis, values, repeated):
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(run_config_file), "--out", str(out),
                     "--axis", axis, "--values", values])
        assert code == EXIT_CONFIG
        assert f"lists {repeated} more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_values_rejected(self, run_config_file, tmp_path):
        code = main(["sweep", "--config", str(run_config_file),
                     "--out", str(tmp_path / "o"), "--axis", "gamma", "--values", ","])
        assert code == EXIT_CONFIG


class TestGenSynth:
    def test_round_trips_as_valid_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(["gen-synth", "--out", str(out), "--classes", "2",
                     "--nodes-per-class", "4", "--seed", "3"])
        assert code == EXIT_OK
        g = load_dataset(out)
        assert g.num_nodes == 8
        assert g.num_classes == 2
        assert "num_nodes: 8" in capsys.readouterr().out

    def test_byte_identical_for_same_seed(self, tmp_path):
        for name in ("a", "b"):
            main(["gen-synth", "--out", str(tmp_path / name), "--classes", "3",
                  "--nodes-per-class", "10", "--seed", "5"])
        for f in DATASET_FILES:
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_homophily_half_gives_balanced_edges(self, tmp_path):
        fractions = []
        for seed in range(10):
            out = tmp_path / f"ds{seed}"
            main(["gen-synth", "--out", str(out), "--classes", "4",
                  "--nodes-per-class", "25", "--homophily", "0.5",
                  "--seed", str(seed)])
            fractions.append(intra_class_fraction(load_dataset(out)))
        mean = sum(fractions) / len(fractions)
        assert abs(mean - 0.5) < 0.1

    def test_defaults_are_the_spec_defaults(self):
        args = build_parser().parse_args(["gen-synth", "--out", "unused"])
        flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SyntheticSpec)}
        assert flags == dataclasses.asdict(SyntheticSpec())
        params = inspect.signature(generate_synthetic).parameters
        assert params["class_sep"].default == SyntheticSpec.class_sep
        assert args.seed == SCHEMA["seed"].default

    def test_default_seed_writes_the_graph_run_draws(self, tmp_path):
        # gen-synth without --seed writes the graph that run draws in memory
        # at its own default seed.
        keys = ["--set", "backbone.hidden=8", "--set", "backbone.epochs=5",
                "--set", "expander.dim=16"]
        assert main(["gen-synth", "--out", str(tmp_path / "ds"),
                     "--homophily", "0.5", "--class-sep", "0.3"]) == EXIT_OK
        assert main(["run", "--out", str(tmp_path / "disk"),
                     "--set", f"dataset.path={tmp_path / 'ds'}", *keys]) == EXIT_OK
        assert main(["run", "--out", str(tmp_path / "memory"), "--set", "synthetic.homophily=0.5",
                     "--set", "synthetic.class_sep=0.3", *keys]) == EXIT_OK
        assert (tmp_path / "disk" / "matrix.csv").read_bytes() == \
            (tmp_path / "memory" / "matrix.csv").read_bytes()

    def test_invalid_spec_is_runtime_error(self, tmp_path):
        code = main(["gen-synth", "--out", str(tmp_path / "ds"), "--classes", "1"])
        assert code == EXIT_RUNTIME

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        code = main(["gen-synth", "--out", str(tmp_path / "ds"), "--seed", "-1"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: seed must be >= 0 (got -1)\n"
        assert not (tmp_path / "ds").exists()


class TestValidateDataset:
    def test_valid_directory(self, tmp_path, capsys):
        main(["gen-synth", "--out", str(tmp_path / "ds"), "--seed", "1"])
        code = main(["validate-dataset", "--path", str(tmp_path / "ds")])
        assert code == EXIT_OK
        assert "dataset ok" in capsys.readouterr().out

    def test_corrupt_directory(self, tmp_path, capsys):
        main(["gen-synth", "--out", str(tmp_path / "ds"), "--seed", "1"])
        path = tmp_path / "ds" / "labels.npy"
        labels = np.load(path)
        labels[1] = -1
        np.save(path, labels)
        code = main(["validate-dataset", "--path", str(tmp_path / "ds")])
        assert code == EXIT_RUNTIME
        assert f"{path}: row 1 holds -1, outside [0, " in capsys.readouterr().err


def _type_error(name, data):
    if name == "meta.json":
        return b"5\n"
    # float32 is no array file's dtype.
    buf = io.BytesIO()
    np.save(buf, np.load(io.BytesIO(data)).astype(np.float32))
    return buf.getvalue()


DATASET_FILES = ("edges.npy", "features.npy", "labels.npy", "split.npy", "meta.json")
CORRUPTIONS = {
    "truncated": lambda name, data: data[:len(data) // 2],
    "non_utf8": lambda name, data: b"\xff\xfe0,1\n\x80\x81\n",
    "type_error": _type_error,
}


class TestCorruptDataset:
    """Every corrupt dataset file exits 3 naming the file, never with a traceback."""

    @pytest.fixture
    def dataset(self, tmp_path):
        save_dataset(generate_synthetic(3, 6, 4, 0.8, seed=4), tmp_path / "ds")
        return tmp_path / "ds"

    def _validate(self, dataset, capsys):
        code = main(["validate-dataset", "--path", str(dataset)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("name", DATASET_FILES)
    def test_corrupt_file_exits_3_naming_it(self, dataset, capsys, name, kind):
        path = dataset / name
        path.write_bytes(CORRUPTIONS[kind](name, path.read_bytes()))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME, err
        assert name in err
        assert "Traceback" not in err

    def test_nan_feature_names_its_line(self, dataset, capsys):
        path = dataset / "features.npy"
        features = np.load(path)
        features[2, 1] = np.nan
        np.save(path, features)
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert err == f"error: {path}: non-finite feature in row 2\n"

    @pytest.mark.parametrize("version", [None, 1, 2], ids=["unversioned", "version_1", "version_2"])
    def test_other_format_version_is_one_line_from_both_commands(self, dataset, capsys,
                                                                  tmp_path, version):
        path = dataset / "meta.json"
        meta = {**json.loads(path.read_text()), "format_version": version}
        path.write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
        for argv in (["validate-dataset", "--path", str(dataset)],
                     ["run", "--out", str(tmp_path / "o"), "--set", f"dataset.path={dataset}"]):
            assert main(argv) == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert err.startswith(f"error: {path}: format_version {version!r}, expected 3; ")

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"num_nodes": ' + "1" * 5000 + "}"],
                             ids=["deep_nesting", "5000_digit_int"])
    def test_meta_json_past_parser_limits(self, dataset, capsys, text):
        (dataset / "meta.json").write_text(text)
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert "meta.json: invalid JSON" in err

    @pytest.mark.parametrize("key", ["num_nodes", "num_features", "num_classes"])
    def test_boolean_meta_count_rejected(self, dataset, capsys, key):
        path = dataset / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: True}))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert f"meta.json: {key} must be a positive integer" in err

    @pytest.mark.parametrize("num_nodes", [3_037_000_500, 10**30])
    def test_node_count_past_int64_edge_keys_is_one_line(self, dataset, capsys, num_nodes):
        path = dataset / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "num_nodes": num_nodes}))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error: num_nodes={num_nodes} exceeds 3037000499")

    @pytest.mark.parametrize("name, value, end", [
        ("labels.npy", 2**63 - 1, 3), ("labels.npy", -2**63, 3), ("split.npy", 2**63 - 1, 4),
    ], ids=["huge_label", "huge_negative_label", "huge_split_token"])
    def test_huge_token_is_one_line_from_both_commands(self, dataset, capsys, tmp_path,
                                                       name, value, end):
        # The int64 extremes, in row 1 of labels.npy or split.npy.
        path = dataset / name
        array = np.load(path)
        array[1] = value
        np.save(path, array)
        for argv in (["validate-dataset", "--path", str(dataset)],
                     ["run", "--out", str(tmp_path / "o"), "--set", f"dataset.path={dataset}"]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_RUNTIME, err
            assert len(err.splitlines()) == 1, err
            assert err == f"error: {path}: row 1 holds {value}, outside [0, {end})\n"

    def test_huge_feature_count_named_from_the_header(self, dataset, capsys):
        path = dataset / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "num_features": 10**18}))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert err == (f"error: {dataset / 'features.npy'}: <f8 array of shape (18, 4), expected "
                       "float64 of shape (18, 1000000000000000000)\n")


@pytest.fixture(scope="module")
def small_dataset_files(tmp_path_factory):
    """The five files of a small ``gen-synth`` directory, by name."""
    root = tmp_path_factory.mktemp("small") / "ds"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-synth", "--out", str(root), "--classes", "3",
                     "--nodes-per-class", "6", "--features", "4", "--seed", "4"]) == EXIT_OK
    return {name: (root / name).read_bytes() for name in DATASET_FILES}


SPLICED_TOKENS = [b"99999999999999999999", b"-99999999999999999999", b"-1", b"nan", b"1e309"]


@st.composite
def mutated_file(draw, files):
    """One dataset file's name and its mutated bytes, or None for a deleted file."""
    name = draw(st.sampled_from(DATASET_FILES))
    data = files[name]
    kinds = ["truncate", "replace_byte", "insert_byte", "delete_file"]
    if name == "meta.json":  # the one text file
        kinds += ["duplicate_line", "delete_line", "splice_token"]
    kind = draw(st.sampled_from(kinds))
    if kind == "delete_file":
        return name, None
    if kind == "truncate":
        return name, data[:draw(st.integers(0, len(data) - 1))]
    if kind in ("replace_byte", "insert_byte"):
        at = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        return name, data[:at] + byte + data[at + (kind == "replace_byte"):]
    if kind == "splice_token":
        tokens = list(re.finditer(rb'[^,\s"{}:]+', data))
        token = draw(st.sampled_from(tokens))
        new = draw(st.sampled_from(SPLICED_TOKENS))
        return name, data[:token.start()] + new + data[token.end():]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    lines[i:i + 1] = [lines[i]] * 2 if kind == "duplicate_line" else []
    return name, b"".join(lines)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_dataset_exits_0_or_3(small_dataset_files, data):
    # A corrupt dataset is one `error:` line, never a traceback or another exit code.
    name, mutated = data.draw(mutated_file(small_dataset_files))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        root.mkdir()
        for file, content in small_dataset_files.items():
            (root / file).write_bytes(content)
        if mutated is None:
            (root / name).unlink()
        else:
            (root / name).write_bytes(mutated)
        try:
            load_dataset(root)
            load_error = None
        except ValueError as exc:
            load_error = exc
        tiny = ["--set", "backbone.hidden=2", "--set", "backbone.epochs=1",
                "--set", "expander.dim=3", "--set", f"dataset.path={root}"]
        for argv in (["validate-dataset", "--path", str(root)],
                     ["run", "--out", str(Path(tmp) / "out"), *tiny]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (EXIT_OK, EXIT_RUNTIME), (argv[0], lines)
            if code == EXIT_RUNTIME:
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv[0], lines)
            # A dataset that does not load is the one error; a format error names its file.
            if load_error is not None:
                assert lines == [f"error: {load_error}"], (argv[0], lines)
            if isinstance(load_error, DatasetFormatError):
                assert any(file in lines[0] for file in DATASET_FILES), lines


def test_label_past_int64_under_huge_class_count_exits_3(small_dataset_files, tmp_path, capsys):
    # Two corruptions at once, which the one-mutation property test above never draws:
    # with num_classes = 10**30, past int64, the largest int64 label lies below C.
    root = tmp_path / "ds"
    root.mkdir()
    for name, content in small_dataset_files.items():
        (root / name).write_bytes(content)
    meta = root / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "num_classes": 10**30}))
    labels = np.load(root / "labels.npy")
    labels[1] = 2**63 - 1
    np.save(root / "labels.npy", labels)
    assert main(["validate-dataset", "--path", str(root)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == \
        f"error: class 3 has no node; the graph declares {10**30} classes\n"


class TestHelp:
    def test_every_registered_flag_appears_in_help(self):
        parser = build_parser()
        sub_actions = [a for a in parser._actions
                       if isinstance(a, type(parser._subparsers._group_actions[0]))]
        for cmd, sub in sub_actions[0].choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for opt in action.option_strings:
                    assert opt in help_text, f"{cmd}: {opt} missing from --help"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_every_schema_key_in_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        for key, field in SCHEMA.items():
            assert key in help_text, key
            assert field.help in help_text, key

    def test_commands_enumerated(self):
        help_text = build_parser().format_help()
        for cmd in ("run", "sweep", "gen-synth", "validate-dataset"):
            assert cmd in help_text
