"""Command-line surface.

Commands:
    run               execute one experiment and write report artifacts
    sweep             rerun the experiment across one axis (feg_dim | gamma)
    gen-synth         write a synthetic dataset directory
    validate-dataset  load a dataset directory and print its statistics

Exit codes: 0 success, 2 config error, 3 runtime failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError
from .datasets import dataset_summary, load_dataset, save_dataset
from .graph import check_class_coverage
from .harness import run_experiment
from .metrics import RunReport, curve_svg, emit_report
from .synthetic import generate_synthetic, intra_class_fraction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

SWEEP_AXES = {"feg_dim": "expander.dim", "gamma": "gamma"}  # axis name -> config key


def _schema_epilog() -> str:
    """Every config key with its kind, default and help, for ``run`` and ``sweep``."""
    rows = []
    for key, field in cfgmod.SCHEMA.items():
        default = "unset" if field.default is None else str(field.default)
        rows.append(f"  {key:<26}{field.kind.__name__:<6}{default:<8}{field.help}")
    return "config keys (set in --config or with --set KEY=VALUE):\n" + "\n".join(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acgl",
        description="Analytic continual graph learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment config file (flat key=value format)")
        p.add_argument("--out", default="acgl-out", help="output directory for artifacts")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="config override, repeatable")

    with_schema = dict(epilog=_schema_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p_run = sub.add_parser("run", help="run one experiment", **with_schema)
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value", **with_schema)
    add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=sorted(SWEEP_AXES), required=True,
                         help="which knob to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, each read as its config key")

    p_gen = sub.add_parser("gen-synth", help="generate a synthetic dataset directory")
    p_gen.add_argument("--out", required=True, help="dataset directory to write")
    for key, field in cfgmod.SCHEMA.items():  # one flag per synthetic.* key and --seed
        if key.startswith("synthetic.") or key == "seed":
            p_gen.add_argument("--" + key.removeprefix("synthetic.").replace("_", "-"),
                               type=field.kind,
                               default=field.default, help=field.help)

    p_val = sub.add_parser("validate-dataset", help="check a dataset directory")
    p_val.add_argument("--path", required=True, help="dataset directory to validate")

    return parser


def _load_effective_config(args) -> dict:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.default_config()
    return cfgmod.apply_overrides(cfg, args.overrides)


def _run_and_report(cfg: dict, experiment, out) -> RunReport:
    """Run ``experiment``, write its report into ``out`` and return the report."""
    result = run_experiment(experiment)
    report = RunReport(result.matrix, result.timings, cfgmod.config_echo(cfg))
    emit_report(report, out)
    return report


def _summary(report: RunReport) -> str:
    return f"AP={report.ap:.4f} AF={report.af:.4f} total={report.times['total_s']:.2f}s"


def _cmd_run(args) -> int:
    cfg = _load_effective_config(args)
    report = _run_and_report(cfg, cfgmod.build_experiment(cfg), args.out)
    print(f"{_summary(report)} out={args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_effective_config(args)
    key = SWEEP_AXES[args.axis]
    values = [cfgmod.parse_value(key, v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:  # one point_<value> directory and sweep.csv row per value
            raise ConfigError(f"--values for axis {args.axis} lists {value} more than once")

    # Every point's config is checked before the first point runs.
    point_cfgs = [{**cfg, key: value} for value in values]
    experiments = [cfgmod.build_experiment(point_cfg) for point_cfg in point_cfgs]

    out = Path(args.out)
    reports = []
    for value, point_cfg, experiment in zip(values, point_cfgs, experiments):
        reports.append(_run_and_report(point_cfg, experiment, out / f"point_{value}"))
        print(f"{args.axis}={value} {_summary(reports[-1])}")

    out.mkdir(parents=True, exist_ok=True)
    with (out / "sweep.csv").open("w", encoding="utf-8") as f:
        f.write(f"{args.axis},ap,af,time_s\n")
        for value, r in zip(values, reports):
            f.write(f"{value},{repr(r.ap)},{repr(r.af)},{repr(r.times['total_s'])}\n")
    series = {"AP": [r.ap for r in reports], "AF": [r.af for r in reports]}
    svg = curve_svg([str(v) for v in values], series, title=f"sweep over {args.axis}")
    (out / "sweep.svg").write_text(svg, encoding="utf-8")
    return EXIT_OK


def _cmd_gen_synth(args) -> int:
    graph = generate_synthetic(
        args.classes, args.nodes_per_class, args.features, args.homophily,
        seed=args.seed, class_sep=args.class_sep,
    )
    save_dataset(graph, args.out)
    stats = dataset_summary(graph)
    stats["intra_class_edge_fraction"] = round(intra_class_fraction(graph), 4)
    for key, value in stats.items():
        print(f"{key}: {value}")
    print(f"written: {args.out}")
    return EXIT_OK


def _cmd_validate_dataset(args) -> int:
    graph = load_dataset(args.path)
    check_class_coverage(graph)
    for key, value in dataset_summary(graph).items():
        print(f"{key}: {value}")
    print("dataset ok")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "gen-synth": _cmd_gen_synth,
    "validate-dataset": _cmd_validate_dataset,
}


# The module whose routines only compute products for their caller: an error
# in one is named after that caller, whichever thread hit it.
_PRODUCT_ROUTINES = ("threads.",)


def _failing_stage(exc: BaseException) -> str:
    """``module.function`` of the innermost public acgl function in ``exc``'s traceback.

    Frames of the product routines and of private (``_``-prefixed) functions
    are passed over, so an error in a helper, such as the weight step both
    ``analytic.align_base`` and ``analytic.update_weights`` end with, is named
    after the public stage that called it.
    """
    package = Path(__file__).parent
    stages = [f"{Path(f.filename).stem}.{f.name}"
              for f in traceback.extract_tb(exc.__traceback__)
              if Path(f.filename).parent == package and not f.name.startswith("_")]
    return [s for s in stages if not s.startswith(_PRODUCT_ROUTINES)][-1]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # An overflow or NaN anywhere in a run stops it here, not as a warning.
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FloatingPointError as exc:
        print(f"error: {_failing_stage(exc)}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
