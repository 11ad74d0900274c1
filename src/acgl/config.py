"""Flat key-value experiment configuration.

Config files are plain text, one ``key = value`` per line, ``#`` comments,
dotted section keys (``backbone.epochs = 50``). Every key is declared in
the schema below with a type and default; unknown keys are rejected, as
are values of the wrong type. ``--set key=value`` overrides reuse the same
parser.

This module only names keys: each range, and each check spanning keys, lives
on the dataclass holding the fields (``SyntheticSpec``, ``BackboneConfig``,
``ExpanderConfig``, ``ExperimentConfig`` and its ``SessionPlan``), and
:func:`build_experiment` maps a field that fails to its key. Only the flat
file's own rule is here: ``plan.base_classes >= 0``, 0 meaning the default.

All randomness flows from the one global ``seed``, ``ExperimentConfig.seed``:
:func:`acgl.harness.run_experiment` draws the synthetic graph from ``seed``,
the backbone from ``seed + 1`` and the expansion weight from ``seed + 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .backbone import BackboneConfig
from .graph import FieldError
from .harness import ExperimentConfig, ExpanderConfig
from .synthetic import SyntheticSpec


class ConfigError(ValueError):
    """Unknown key, malformed line, bad type, or invalid value."""


@dataclass(frozen=True)
class Field:
    kind: type           # int, float or str: what parse_value calls on the raw text
    default: object
    help: str


SCHEMA: dict[str, Field] = {
    "dataset.path": Field(str, None, "dataset directory; unset means synthetic data"),
    "synthetic.classes": Field(int, SyntheticSpec.classes, "number of classes"),
    "synthetic.nodes_per_class": Field(int, SyntheticSpec.nodes_per_class, "nodes per class"),
    "synthetic.features": Field(int, SyntheticSpec.features, "feature dimension"),
    "synthetic.homophily": Field(float, SyntheticSpec.homophily, "intra-class edge probability"),
    "synthetic.class_sep": Field(float, SyntheticSpec.class_sep, "class mean separation scale"),
    "plan.base_classes": Field(int, 0, "base class count c0; 0 means half of C rounded up"),
    "plan.increment": Field(int, ExperimentConfig.k, "classes added per incremental session"),
    "backbone.hidden": Field(int, BackboneConfig.hidden, "GCN hidden width"),
    "backbone.epochs": Field(int, BackboneConfig.epochs, "base-session training epochs"),
    "backbone.lr": Field(float, BackboneConfig.lr, "Adam learning rate"),
    "backbone.dropout": Field(float, BackboneConfig.dropout, "dropout rate on the hidden layer"),
    "backbone.weight_decay": Field(float, BackboneConfig.weight_decay,
                                   "L2 decay folded into gradients"),
    "expander.dim": Field(int, ExpanderConfig.dim, "feature expansion output dimension"),
    "gamma": Field(float, ExperimentConfig.gamma, "ridge regularization strength"),
    "seed": Field(int, ExperimentConfig.seed,
                  "global seed: graph from seed, backbone seed + 1, expander seed + 2"),
}


def parse_value(key: str, raw: str):
    field = SCHEMA.get(key)
    if field is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        value = field.kind(raw)
        if (field.kind is float and not math.isfinite(value)) or value == "":
            raise ValueError(raw)
        return value
    except ValueError:
        kind = {int: "an int", float: "a finite float", str: "a nonempty string"}[field.kind]
        raise ConfigError(f"key {key!r} expects {kind}, got {raw!r}") from None


def default_config() -> dict:
    return {key: field.default for key, field in SCHEMA.items()}


def _assign(cfg: dict, text: str, malformed: str) -> None:
    """Set ``cfg[key]`` from one ``key = value`` text; raise ConfigError(``malformed``)
    when it holds no ``=``."""
    if "=" not in text:
        raise ConfigError(malformed)
    key, raw = text.split("=", 1)
    cfg[key.strip()] = parse_value(key.strip(), raw)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    cfg = default_config()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            _assign(cfg, stripped, f"expected 'key = value', got {line!r}")
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
        _assign(out, pair, f"override must look like key=value, got {pair!r}")
    return out


def _section(cfg: dict, prefix: str, cls, **extra):
    """``cls`` from the keys under ``prefix`` plus ``extra``; a field that fails names its key,
    which for ExperimentConfig's ``c0`` and ``k`` is not their name."""
    fields = {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}
    try:
        return cls(**fields, **extra)
    except FieldError as exc:
        key = {"c0": "plan.base_classes", "k": "plan.increment"}.get(exc.field, prefix + exc.field)
        raise ConfigError(f"config key {key!r} {exc.rule} (got {exc.value!r})") from None


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Turn a flat config into the harness config, naming the first key out of range."""
    synthetic = _section(cfg, "synthetic.", SyntheticSpec)
    backbone = _section(cfg, "backbone.", BackboneConfig)
    expander = _section(cfg, "expander.", ExpanderConfig)
    if cfg["plan.base_classes"] < 0:  # 0 means the default, so only the file has this rule
        raise ConfigError(
            f"config key 'plan.base_classes' must be >= 0 (got {cfg['plan.base_classes']!r})")
    return _section(
        {"gamma": cfg["gamma"], "seed": cfg["seed"]}, "", ExperimentConfig,
        dataset_path=cfg["dataset.path"],
        synthetic=synthetic if cfg["dataset.path"] is None else None,
        c0=cfg["plan.base_classes"] or None,
        k=cfg["plan.increment"],
        backbone=backbone,
        expander=expander,
    )


def config_echo(cfg: dict) -> dict:
    """JSON-friendly view of the effective config: every schema key that is set."""
    return {k: v for k, v in cfg.items() if v is not None}
