import dataclasses
from pathlib import Path

import numpy as np
import pytest

from acgl.config import (
    ConfigError,
    SCHEMA,
    apply_overrides,
    build_experiment,
    default_config,
    load_config,
    parse_config_text,
    parse_value,
)
from acgl.harness import ExperimentConfig, run_experiment
from acgl.synthetic import SyntheticSpec

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.cfg")) + sorted(REPO.glob("perfbench/configs/*.cfg"))


def test_defaults_cover_schema():
    cfg = default_config()
    assert set(cfg) == set(SCHEMA)
    build_experiment(cfg)  # defaults must validate


def test_defaults_are_the_dataclass_defaults():
    assert build_experiment(default_config()) == ExperimentConfig(synthetic=SyntheticSpec())


def test_parse_dotted_keys_and_comments():
    cfg = parse_config_text(
        """
        # comment line
        backbone.epochs = 7   # trailing comment
        gamma = 0.25
        dataset.path = data/toy
        """
    )
    assert cfg["backbone.epochs"] == 7
    assert cfg["gamma"] == 0.25
    assert cfg["dataset.path"] == "data/toy"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("backbone.epoch = 7")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="backbone.epochs"):
        parse_config_text("backbone.epochs = soon")
    with pytest.raises(ConfigError, match="'gamma' expects a finite float"):
        parse_config_text("gamma = small")


def test_empty_dataset_path_rejected_naming_the_key():
    # Left empty, the path would name the working directory.
    with pytest.raises(ConfigError, match=r"^<config>:2: key 'dataset.path' expects a "
                                          r"nonempty string, got ''$"):
        parse_config_text("gamma = 0.5\ndataset.path =  \n")


def test_malformed_line_carries_position():
    with pytest.raises(ConfigError, match="<config>:2"):
        parse_config_text("gamma = 1.0\nbroken line\n")


def test_gamma_zero_rejected_naming_field():
    cfg = apply_overrides(default_config(), ["gamma=0"])
    with pytest.raises(ConfigError, match="'gamma'"):
        build_experiment(cfg)


def test_expander_must_exceed_hidden():
    cfg = apply_overrides(default_config(), ["backbone.hidden=64", "expander.dim=64"])
    with pytest.raises(ConfigError, match="expander.dim"):
        build_experiment(cfg)


def test_overrides_apply_in_order():
    cfg = apply_overrides(default_config(), ["seed=7", "seed=9"])
    assert cfg["seed"] == 9


def test_seed_derivation_offsets(monkeypatch):
    # The run draws the graph from seed, the backbone from seed + 1 and the
    # expander from seed + 2, and no other generator. The expander is drawn
    # before the backbone trains, so a too-narrow width fails first.
    seeds = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    cfg = apply_overrides(default_config(), [
        "synthetic.nodes_per_class=10", "backbone.hidden=4", "backbone.epochs=2",
        "expander.dim=8", "seed=100"])
    run_experiment(build_experiment(cfg))
    assert seeds == [100, 102, 101]


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


# A valid non-default value for every schema key.
NON_DEFAULT = {
    "dataset.path": "data/toy",
    "synthetic.classes": "5",
    "synthetic.nodes_per_class": "40",
    "synthetic.features": "8",
    "synthetic.homophily": "0.5",
    "synthetic.class_sep": "2.5",
    "plan.base_classes": "3",
    "plan.increment": "2",
    "backbone.hidden": "128",
    "backbone.epochs": "10",
    "backbone.lr": "0.01",
    "backbone.dropout": "0.25",
    "backbone.weight_decay": "0",
    "expander.dim": "1024",
    "gamma": "0.5",
    "seed": "7",
}


def test_build_experiment_wires_fields():
    # NON_DEFAULT names every key, so the test below walks them all.
    assert set(NON_DEFAULT) == set(SCHEMA)
    cfg = apply_overrides(default_config(), [
        "synthetic.classes=5", "plan.base_classes=3", "plan.increment=2", "gamma=0.5",
        "backbone.hidden=32", "expander.dim=64", "seed=11",
    ])
    exp = build_experiment(cfg)
    assert exp.c0 == 3
    assert exp.k == 2
    assert exp.gamma == 0.5
    assert exp.backbone.hidden == 32
    assert exp.expander.dim == 64
    assert exp.seed == 11


def leaf_fields(obj, prefix=""):
    """Every field of ``obj`` that is not itself a dataclass, by dotted name."""
    leaves = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            leaves.update(leaf_fields(value, f"{prefix}{f.name}."))
        else:
            leaves[prefix + f.name] = value
    return leaves


@pytest.mark.parametrize("key", NON_DEFAULT)
def test_each_key_sets_exactly_one_leaf_field(key):
    # A key that nothing reads changes no field; a key that lands in two fields
    # stores one fact twice. A set dataset.path drops the synthetic spec, so
    # that key is moved between two paths.
    assert parse_value(key, NON_DEFAULT[key]) != SCHEMA[key].default
    base = default_config()
    if key == "dataset.path":
        base = apply_overrides(base, ["dataset.path=data/other"])
    before = leaf_fields(build_experiment(base))
    after = leaf_fields(build_experiment(apply_overrides(base, [f"{key}={NON_DEFAULT[key]}"])))
    assert set(after) == set(before)
    assert [name for name in before if before[name] != after[name]] == [
        {"dataset.path": "dataset_path", "plan.base_classes": "c0", "plan.increment": "k"}
        .get(key, key)]


def test_zero_base_classes_means_default_half():
    exp = build_experiment(default_config())
    assert exp.c0 is None  # resolved to ceil(C/2) inside the harness


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO)))
def test_shipped_config_builds(path):
    # A key removed from the schema but left in a shipped config fails here,
    # not first in the benchmark.
    build_experiment(load_config(path))


def test_shipped_configs_found():
    assert {p.name for p in SHIPPED_CONFIGS} >= {
        "cora.cfg", "synthetic.cfg", "stream40.cfg", "big_sessions.cfg"}
