"""Flat key-value experiment configuration.

Config files are plain text, one ``key = value`` per line, ``#`` comments,
dotted section keys (``backbone.epochs = 50``). Every key is declared in
the schema below with a type and default; unknown keys are rejected, as
are values of the wrong type. ``--set key=value`` overrides reuse the same
parser.

Each section's defaults and single-key ranges live on its dataclass
(``SyntheticSpec``, ``BackboneConfig``, ``ExpanderConfig``, ``ExperimentConfig``):
:func:`build_experiment` builds each from the keys under its prefix and maps a
field that fails to its key. ``_validate`` holds only the checks that span keys
or exist only in the flat config.

All randomness flows from the one global ``seed``: the synthetic graph
draws from ``seed``, the backbone (weight init and dropout) from
``seed + 1`` and the frozen expansion weight from ``seed + 2``, so a single
seed pins the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .backbone import BackboneConfig
from .graph import FieldError, default_base_size
from .harness import ExperimentConfig, ExpanderConfig
from .synthetic import SyntheticSpec


class ConfigError(ValueError):
    """Unknown key, malformed line, bad type, or invalid value."""


@dataclass(frozen=True)
class Field:
    kind: str            # "int" | "float" | "str"
    default: object
    help: str


SCHEMA: dict[str, Field] = {
    "dataset.path": Field("str", None, "dataset directory; unset means synthetic data"),
    "synthetic.classes": Field("int", SyntheticSpec.classes, "number of classes"),
    "synthetic.nodes_per_class": Field("int", SyntheticSpec.nodes_per_class, "nodes per class"),
    "synthetic.features": Field("int", SyntheticSpec.features, "feature dimension"),
    "synthetic.homophily": Field("float", SyntheticSpec.homophily, "intra-class edge probability"),
    "synthetic.class_sep": Field("float", SyntheticSpec.class_sep, "class mean separation scale"),
    "plan.base_classes": Field("int", 0, "base class count c0; 0 means half of C rounded up"),
    "plan.increment": Field("int", ExperimentConfig.k, "classes added per incremental session"),
    "backbone.hidden": Field("int", BackboneConfig.hidden, "GCN hidden width"),
    "backbone.epochs": Field("int", BackboneConfig.epochs, "base-session training epochs"),
    "backbone.lr": Field("float", BackboneConfig.lr, "Adam learning rate"),
    "backbone.dropout": Field("float", BackboneConfig.dropout, "dropout rate on the hidden layer"),
    "backbone.weight_decay": Field("float", BackboneConfig.weight_decay,
                                   "L2 decay folded into gradients"),
    "expander.dim": Field("int", ExpanderConfig.dim, "feature expansion output dimension"),
    "gamma": Field("float", ExperimentConfig.gamma, "ridge regularization strength"),
    "seed": Field("int", 42, "global seed; the backbone uses seed + 1, the expander seed + 2"),
}


def parse_value(key: str, raw: str):
    field = SCHEMA.get(key)
    if field is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if field.kind == "int":
            return int(raw)
        if field.kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
        return raw
    except ValueError:
        kind = "a finite float" if field.kind == "float" else "an int"  # str never fails
        raise ConfigError(f"key {key!r} expects {kind}, got {raw!r}") from None


def default_config() -> dict:
    return {key: field.default for key, field in SCHEMA.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    cfg = default_config()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        try:
            cfg[key] = parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{line_no}: {exc}") from None
    return cfg


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text, source=str(p))


def apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    out = dict(cfg)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        out[key.strip()] = parse_value(key.strip(), raw)
    return out


def _section(cfg: dict, prefix: str, cls, **extra):
    """``cls`` from the keys under ``prefix`` plus ``extra``; a field that fails names its key."""
    fields = {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}
    try:
        return cls(**fields, **extra)
    except FieldError as exc:
        raise ConfigError(
            f"config key {prefix + exc.field!r} {exc.rule} (got {exc.value!r})") from None


def _validate(cfg: dict) -> None:
    """The checks that span keys or exist only in the flat config."""
    checks = [
        ("plan.increment", cfg["plan.increment"] >= 1, "must be >= 1"),
        ("plan.base_classes", cfg["plan.base_classes"] >= 0, "must be >= 0"),
        ("expander.dim", cfg["expander.dim"] > cfg["backbone.hidden"],
         "must exceed backbone.hidden"),
        ("seed", cfg["seed"] >= 0, "must be >= 0"),
    ]
    if cfg["dataset.path"] is None:  # a dataset's class count is known only after load
        classes = cfg["synthetic.classes"]
        c0 = cfg["plan.base_classes"] or default_base_size(classes)
        checks += [
            ("plan.base_classes", c0 < classes, f"must be below synthetic.classes = {classes}"),
            ("plan.increment", cfg["plan.increment"] <= classes - c0,
             f"must be at most synthetic.classes - base classes = {classes - c0}"),
        ]
    for key, ok, msg in checks:
        if not ok:
            raise ConfigError(f"config key {key!r} {msg} (got {cfg[key]!r})")


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Turn a flat config into the harness config, naming the first key out of range."""
    seed = cfg["seed"]
    synthetic = _section(cfg, "synthetic.", SyntheticSpec)
    backbone = _section(cfg, "backbone.", BackboneConfig, seed=seed + 1)
    expander = _section(cfg, "expander.", ExpanderConfig, seed=seed + 2)
    _validate(cfg)  # after the sections: synthetic.classes = 1 is its own error, not a plan's
    return _section(
        {"gamma": cfg["gamma"]}, "", ExperimentConfig,
        dataset_path=cfg["dataset.path"],
        synthetic=synthetic if cfg["dataset.path"] is None else None,
        c0=cfg["plan.base_classes"] or None,
        k=cfg["plan.increment"],
        backbone=backbone,
        expander=expander,
        data_seed=seed,
    )


def config_echo(cfg: dict) -> dict:
    """JSON-friendly view of the effective config: every schema key that is set."""
    return {k: v for k, v in cfg.items() if v is not None}
