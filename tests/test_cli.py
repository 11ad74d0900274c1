import json
from pathlib import Path

import pytest

from acgl.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, build_parser, main
from acgl.datasets import load_dataset
from acgl.synthetic import intra_class_fraction

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

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

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

    def test_report_echoes_config_with_derived_seeds(self, run_config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(run_config_file), "--out", str(out), "--seed", "5"])
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 5
        assert doc["config"]["seed.backbone"] == 6

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

    def test_commands_enumerated(self):
        help_text = build_parser().format_help()
        for cmd in ("run", "sweep", "gen-synth", "validate-dataset"):
            assert cmd in help_text
