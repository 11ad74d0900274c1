"""Flat key-value experiment configuration.

Config files are plain text, one ``key = value`` per line, ``#`` comments,
dotted section keys (``backbone.epochs = 50``). Every key is declared in
the schema below with a type and default; unknown keys are rejected, as
are values of the wrong type. ``--set key=value`` overrides reuse the same
parser.

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
from .harness import ExperimentConfig, ExpanderConfig, SyntheticSpec


class ConfigError(ValueError):
    """Unknown key, malformed line, bad type, or invalid value."""


@dataclass(frozen=True)
class Field:
    kind: str            # "int" | "float" | "str"
    default: object
    help: str


SCHEMA: dict[str, Field] = {
    "dataset.path": Field("str", None, "dataset directory; unset means synthetic data"),
    "synthetic.classes": Field("int", 4, "synthetic: number of classes"),
    "synthetic.nodes_per_class": Field("int", 50, "synthetic: nodes per class"),
    "synthetic.features": Field("int", 16, "synthetic: feature dimension"),
    "synthetic.homophily": Field("float", 0.9, "synthetic: intra-class edge probability"),
    "synthetic.avg_degree": Field("float", 4.0, "synthetic: target mean degree, at most n - 1"),
    "synthetic.class_sep": Field("float", 1.0, "synthetic: class mean separation scale"),
    "plan.base_classes": Field("int", 0, "base class count c0; 0 means half of C rounded up"),
    "plan.increment": Field("int", 1, "classes added per incremental session"),
    "backbone.hidden": Field("int", 256, "GCN hidden width"),
    "backbone.epochs": Field("int", 50, "base-session training epochs"),
    "backbone.lr": Field("float", 0.001, "Adam learning rate"),
    "backbone.dropout": Field("float", 0.5, "dropout rate on the hidden layer"),
    "backbone.weight_decay": Field("float", 5e-4, "L2 decay folded into gradients"),
    "expander.dim": Field("int", 2048, "feature expansion output dimension"),
    "gamma": Field("float", 1.0, "ridge regularization strength"),
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
        kind = "finite float" if field.kind == "float" else field.kind
        raise ConfigError(f"key {key!r} expects a {kind}, got {raw!r}") from None


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


def _validate(cfg: dict) -> None:
    nodes = cfg["synthetic.classes"] * cfg["synthetic.nodes_per_class"]
    checks = [
        ("gamma", cfg["gamma"] > 0, "must be positive"),
        ("backbone.dropout", 0.0 <= cfg["backbone.dropout"] < 1.0, "must lie in [0, 1)"),
        ("backbone.lr", cfg["backbone.lr"] > 0, "must be positive"),
        ("backbone.weight_decay", cfg["backbone.weight_decay"] >= 0, "must be >= 0"),
        ("backbone.hidden", cfg["backbone.hidden"] >= 1, "must be >= 1"),
        ("backbone.epochs", cfg["backbone.epochs"] >= 0, "must be >= 0"),
        ("plan.increment", cfg["plan.increment"] >= 1, "must be >= 1"),
        ("plan.base_classes", cfg["plan.base_classes"] >= 0, "must be >= 0"),
        ("expander.dim", cfg["expander.dim"] > cfg["backbone.hidden"],
         "must exceed backbone.hidden"),
        ("synthetic.homophily", 0.0 <= cfg["synthetic.homophily"] <= 1.0,
         "must lie in [0, 1]"),
        ("synthetic.classes", cfg["synthetic.classes"] >= 2, "must be >= 2"),
        ("synthetic.nodes_per_class", cfg["synthetic.nodes_per_class"] >= 2, "must be >= 2"),
        ("synthetic.features", cfg["synthetic.features"] >= 1, "must be >= 1"),
        ("synthetic.avg_degree", 0 < cfg["synthetic.avg_degree"] <= nodes - 1,
         f"must lie in (0, {nodes - 1}], at most the complete graph's mean degree"),
        ("seed", cfg["seed"] >= 0, "must be >= 0"),
    ]
    for key, ok, msg in checks:
        if not ok:
            raise ConfigError(f"config key {key!r} {msg} (got {cfg[key]!r})")


def build_experiment(cfg: dict) -> ExperimentConfig:
    """Turn a validated flat config into the harness config."""
    _validate(cfg)
    seed = cfg["seed"]
    synthetic = None
    if cfg["dataset.path"] is None:
        synthetic = SyntheticSpec(
            classes=cfg["synthetic.classes"],
            nodes_per_class=cfg["synthetic.nodes_per_class"],
            features=cfg["synthetic.features"],
            homophily=cfg["synthetic.homophily"],
            avg_degree=cfg["synthetic.avg_degree"],
            class_sep=cfg["synthetic.class_sep"],
        )
    return ExperimentConfig(
        dataset_path=cfg["dataset.path"],
        synthetic=synthetic,
        c0=cfg["plan.base_classes"] or None,
        k=cfg["plan.increment"],
        gamma=cfg["gamma"],
        backbone=BackboneConfig(
            hidden=cfg["backbone.hidden"],
            epochs=cfg["backbone.epochs"],
            lr=cfg["backbone.lr"],
            dropout=cfg["backbone.dropout"],
            weight_decay=cfg["backbone.weight_decay"],
            seed=seed + 1,
        ),
        expander=ExpanderConfig(dim=cfg["expander.dim"], seed=seed + 2),
        data_seed=seed,
    )


def config_echo(cfg: dict) -> dict:
    """JSON-friendly view of the effective config: every schema key that is set."""
    return {k: v for k, v in cfg.items() if v is not None}
