import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acgl.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_parser, main
from acgl.config import SCHEMA
from acgl.datasets import load_dataset, save_dataset
from acgl.synthetic import generate_synthetic, intra_class_fraction

from conftest import SWEEP_FIXTURE_LINES

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
        ("synthetic.avg_degree", "nan"),
        ("seed", "-1"),
        ("seed.data", "5"),                  # removed keys: every seed derives from `seed`
        ("seed.backbone", "5"),
        ("seed.expander", "5"),
        ("plan.shuffle_classes", "true"),    # removed key: classes run in ascending order
        ("synthetic.features", "0"),
        ("synthetic.avg_degree", "0"),
        ("synthetic.avg_degree", "1e308"),   # finite, past the complete graph's n - 1
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
                     "--seed", "42"])
        assert code == EXIT_OK
        golden = (GOLDEN_DIR / "matrix.csv").read_bytes()
        assert (out / "matrix.csv").read_bytes() == golden

    def test_two_runs_byte_identical_matrix(self, run_config_file, tmp_path):
        for name in ("a", "b"):
            assert main(["run", "--config", str(run_config_file),
                         "--out", str(tmp_path / name), "--seed", "7"]) == EXIT_OK
        assert (tmp_path / "a" / "matrix.csv").read_bytes() == \
            (tmp_path / "b" / "matrix.csv").read_bytes()

    def test_report_echoes_config_schema_keys(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(run_config_file), "--out", str(out), "--seed", "5"])
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
        labels = (ds / "labels.csv").read_text().split()
        split = (ds / "split.csv").read_text().split()
        node = next(i for i, (y, s) in enumerate(zip(labels, split))
                    if y == "3" and s == "test")
        rows = (ds / "features.csv").read_text().splitlines()
        rows[node] = ",".join(["nan"] + rows[node].split(",")[1:])
        (ds / "features.csv").write_text("\n".join(rows) + "\n")
        code = main(["run", "--out", str(tmp_path / "out"),
                     "--set", f"dataset.path={ds}",
                     "--set", "backbone.hidden=8",
                     "--set", "backbone.epochs=5",
                     "--set", "expander.dim=16"])
        assert code == EXIT_RUNTIME
        # Rejected when the graph is built at load, not at predict after training.
        assert "features contain non-finite" in capsys.readouterr().err

    def test_session_class_without_train_rows_is_runtime_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(ds), "--classes", "4",
                     "--nodes-per-class", "20", "--features", "8",
                     "--seed", "9"]) == EXIT_OK
        # Move class 3's train nodes to test: session 1 (classes 2 and 3)
        # still has train rows, but none of class 3.
        labels = (ds / "labels.csv").read_text().split()
        split = (ds / "split.csv").read_text().split()
        split = ["test" if y == "3" and s == "train" else s for y, s in zip(labels, split)]
        (ds / "split.csv").write_text("\n".join(split) + "\n")
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
        ("synthetic.class_sep", "1e150", "analytic.align_base: the base Gram"),
    ])
    def test_overflow_is_one_error_line_naming_the_stage(self, run_config_file, tmp_path,
                                                         capsys, key, value, stage):
        code = main(["run", "--config", str(run_config_file), "--out", str(tmp_path / "o"),
                     "--set", f"{key}={value}"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage}")
        assert len(err.splitlines()) == 1

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


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_runs_reproduce_at_any_seed(seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(RUN_CONFIG + "backbone.epochs = 5\n")
        outs = [Path(tmp) / name for name in ("a", "b")]
        for out in outs:
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == EXIT_OK
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
        # At least 4 nodes, so 3 is never above the complete graph's degree.
        "synthetic.avg_degree": draw(st.sampled_from([1e-3, 1.0, 3.0])),
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
    # Each key's first value outside its valid range.
    past_edge_values = {
        "synthetic.classes": 1, "synthetic.nodes_per_class": 1, "synthetic.features": 0,
        "synthetic.homophily": 1.5, "synthetic.avg_degree": 0.0, "plan.base_classes": -1,
        "plan.increment": 0, "backbone.hidden": 0, "backbone.epochs": -1,
        "backbone.lr": 0.0, "backbone.dropout": 1.0, "backbone.weight_decay": -1.0,
        "expander.dim": hidden, "gamma": 0.0, "seed": -1,
    }
    past_edge = draw(st.one_of(st.none(), st.sampled_from(sorted(past_edge_values))))
    if past_edge is not None:
        values[past_edge] = past_edge_values[past_edge]
    return {k: v for k, v in values.items() if v is not None}, past_edge


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

    def test_bad_axis_value_is_config_error(self, run_config_file, tmp_path):
        code = main(["sweep", "--config", str(run_config_file),
                     "--out", str(tmp_path / "o"), "--axis", "feg_dim",
                     "--values", "32,notanint"])
        assert code == EXIT_CONFIG

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
        for f in ("edges.csv", "features.csv", "labels.csv", "split.csv", "meta.json"):
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

    def test_invalid_spec_is_runtime_error(self, tmp_path):
        code = main(["gen-synth", "--out", str(tmp_path / "ds"), "--classes", "1"])
        assert code == EXIT_RUNTIME

    def test_huge_avg_degree_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(["gen-synth", "--out", str(out), "--classes", "2",
                     "--nodes-per-class", "4", "--avg-degree", "1e308"])
        assert code == EXIT_RUNTIME
        assert "avg_degree" in capsys.readouterr().err
        assert not out.exists()


class TestValidateDataset:
    def test_valid_directory(self, tmp_path, capsys):
        main(["gen-synth", "--out", str(tmp_path / "ds"), "--seed", "1"])
        code = main(["validate-dataset", "--path", str(tmp_path / "ds")])
        assert code == EXIT_OK
        assert "dataset ok" in capsys.readouterr().out

    def test_corrupt_directory(self, tmp_path, capsys):
        main(["gen-synth", "--out", str(tmp_path / "ds"), "--seed", "1"])
        labels = (tmp_path / "ds" / "labels.csv").read_text().splitlines()
        labels[1] = "broken"
        (tmp_path / "ds" / "labels.csv").write_text("\n".join(labels) + "\n")
        code = main(["validate-dataset", "--path", str(tmp_path / "ds")])
        assert code == EXIT_RUNTIME
        assert "labels.csv:2" in capsys.readouterr().err


def _truncate_mid_line(text):
    """The first half of the lines, then one character of the next, no newline."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2]) + lines[len(lines) // 2][0]


def _type_error(name, text):
    if name == "meta.json":
        return "5\n"
    if name == "features.csv":
        lines = text.splitlines(keepends=True)
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        return "".join(lines)
    # An entry of the wrong type on the first line of a one-value-per-cell file.
    bad = {"edges.csv": "0,1.5", "labels.csv": "true", "split.csv": "1"}[name]
    return bad + "\n" + text.split("\n", 1)[1]


DATASET_FILES = ("edges.csv", "features.csv", "labels.csv", "split.csv", "meta.json")
CORRUPTIONS = {
    "truncated": lambda name, text: _truncate_mid_line(text).encode(),
    "non_utf8": lambda name, text: b"\xff\xfe0,1\n\x80\x81\n",
    "type_error": lambda name, text: _type_error(name, text).encode(),
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
        path.write_bytes(CORRUPTIONS[kind](name, path.read_text()))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME, err
        assert name in err
        assert "Traceback" not in err

    def test_nan_feature_names_its_line(self, dataset, capsys):
        path = dataset / "features.csv"
        path.write_text(_type_error("features.csv", path.read_text()))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert "features.csv:3: features contain non-finite values" in err

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

    def test_huge_feature_count_names_first_row(self, dataset, capsys):
        path = dataset / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "num_features": 10**18}))
        code, err = self._validate(dataset, capsys)
        assert code == EXIT_RUNTIME
        assert "features.csv:1: expected 1000000000000000000 columns, got 4" in err
        assert "too big" not in err


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
