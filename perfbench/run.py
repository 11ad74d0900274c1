"""acgl benchmark: whole `acgl run` invocations, timed end to end or traced per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload cora_csv --seed 1 --seconds 15 --trace 0

One invocation sets the workload up five times (child-process import of
acgl plus, for ``cora_csv``, generating and writing the CSV dataset), then
runs `acgl run` once in a child process for the reference output and the
peak RSS, then runs it in-process, one run after another, until
``--seconds`` have passed. The time metrics are medians over the timed
runs. With ``--trace 1`` untraced and traced runs alternate and the
per-module metrics of the traced runs are reported.

Every run passes through a correctness gate: it must exit 0 and write a
well-formed matrix whose ``matrix.csv`` bytes, AP and AF equal the reference
run's. A traced run must also call every wrapped function as often as the
session plan implies, and its final W must match ``joint_solve`` on the
session batches it saw.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details (environment,
all samples, the span list of the last traced run) go to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, as the README promises; must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5  # set-ups per untraced invocation; setup_s is their median
JOINT_TOL = 1e-8
EXIT_NO_SOURCE = 2
EXIT_SETUP = 3


@dataclass
class Outcome:
    """One run's wall time and checked output; ``error`` is None when it passed the gate."""

    wall_s: float
    error: str | None = None
    matrix_csv: bytes = b""
    ap: float = math.nan
    af: float | None = None
    update_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of this run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-module metrics of traced runs")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_argv(wl, seed: int, out: Path, dataset: Path) -> tuple[list[str], list[str]]:
    """The `acgl run` arguments of one run, and the config overrides among them."""
    overrides = [f"seed={seed}"]
    if wl.csv_dataset:
        overrides.append(f"dataset.path={dataset}")
    argv = ["run", "--config", str(wl.config), "--out", str(out)]
    for pair in overrides:
        argv += ["--set", pair]
    return argv, overrides


def set_up(wl, seed: int, dataset: Path) -> float:
    """Import acgl in a fresh interpreter and write the workload's dataset; returns seconds."""
    from acgl import generate_synthetic, save_dataset

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import acgl.cli"], env=child_env(), check=True)
    if wl.csv_dataset:
        save_dataset(generate_synthetic(**wl.csv_dataset, seed=seed), dataset)
    return time.perf_counter() - t0


def planned_sessions(wl, experiment) -> int:
    """Rows of the performance matrix: the base session plus one per increment of k classes."""
    from acgl.graph import default_base_size

    classes = wl.csv_dataset["num_classes"] if wl.csv_dataset else experiment.synthetic.classes
    c0 = experiment.c0 if experiment.c0 is not None else default_base_size(classes)
    return 1 + math.ceil((classes - c0) / experiment.k)


def check_output(out: Path, sessions: int, outcome: Outcome, ref: Outcome | None) -> str | None:
    """Gate one run's artifacts; fills ``outcome`` and returns a failure reason or None."""
    from acgl.metrics import average_forgetting, average_performance, matrix_from_csv

    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        outcome.matrix_csv = (out / "matrix.csv").read_bytes()
        matrix = matrix_from_csv(outcome.matrix_csv.decode("utf-8"))
        outcome.ap, outcome.af = report["ap"], report["af"]
        outcome.update_s, outcome.eval_s = report["times"]["update_s"], report["times"]["eval_s"]
    except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError: malformed matrix
        return f"unreadable artifacts: {exc!r}"
    if matrix.num_sessions != sessions:
        return f"malformed matrix: {matrix.num_sessions} rows, expected {sessions}"
    if [list(r) for r in matrix.rows] != report.get("matrix"):
        return "report.json matrix differs from matrix.csv"
    if (outcome.ap, outcome.af) != (average_performance(matrix), average_forgetting(matrix)):
        return "AP/AF do not follow from the matrix"
    if len(outcome.update_s) != sessions - 1 or len(outcome.eval_s) != sessions:
        return "per-session timings do not match the session count"
    if ref is not None:
        if outcome.matrix_csv != ref.matrix_csv:
            return "matrix.csv differs from the reference run"
        if (outcome.ap, outcome.af) != (ref.ap, ref.af):
            return "AP/AF differ from the reference run"
    return None


def run_in_process(argv, out: Path, sessions: int, ref: Outcome | None,
                   around=contextlib.nullcontext()) -> Outcome:
    """One gated `acgl run` through ``cli.main``; ``around`` encloses just that call."""
    from acgl import cli

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with around, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crashing run is a failed run, not a crash
        return Outcome(time.perf_counter() - t0, error=f"raised {exc!r}")
    outcome = Outcome(time.perf_counter() - t0)
    if code != 0:
        outcome.error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    else:
        outcome.error = check_output(out, sessions, outcome, ref)
    return outcome


def run_child(argv, out: Path, sessions: int, log: Path) -> tuple[Outcome, float]:
    """`python -m acgl.cli run` in a fresh process; returns its outcome and peak RSS in MB."""
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with log.open("wb") as sink:
        proc = subprocess.Popen([sys.executable, "-m", "acgl.cli", *argv], env=child_env(),
                                stdout=sink, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(time.perf_counter() - t0)
    if proc.returncode != 0:
        outcome.error = f"exit code {proc.returncode}: {log.read_text(errors='replace')[-300:]}"
    else:
        outcome.error = check_output(out, sessions, outcome, None)
    return outcome, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def traced_run(argv, out: Path, sessions: int, ref: Outcome, experiment, check_joint: bool):
    """One in-process run under the span probe; returns its outcome, per-module metrics, spans."""
    from tracing import ROOT as ROOT_SPAN
    from tracing import RunProbe

    with RunProbe() as probe:
        outcome = run_in_process(argv, out, sessions, ref, around=probe.tracer.span(ROOT_SPAN))
    if outcome.error is not None:
        return outcome, None, []
    problems = probe.coverage_problems(experiment)
    if problems:
        outcome.error = "span coverage: " + "; ".join(problems)
        return outcome, None, []
    layers = probe.layer_metrics()
    if check_joint:
        try:
            layers["analytic.joint_rel_err"] = err = probe.joint_rel_err()
        except ValueError as exc:
            outcome.error = f"joint_solve failed: {exc}"
            return outcome, None, []
        if not err <= JOINT_TOL:
            outcome.error = f"final W differs from joint_solve by {err:.3e} > {JOINT_TOL}"
    return outcome, layers, probe.span_records()


def summary(values) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def blas_info() -> list[dict]:
    """Version and thread count of every OpenBLAS the process has loaded."""
    found = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                   cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure_plain(args, argv, sessions: int, work: Path, setups,
                  record: dict) -> tuple[list[Outcome], dict]:
    """Reference run in a child process, then in-process runs for ``--seconds``."""
    out = work / "out"
    ref, peak_rss_mb = run_child(argv, out, sessions, work / "child.log")
    outcomes = [ref]
    if ref.error is not None:
        return outcomes, {}
    t_end = time.perf_counter() + args.seconds
    while len(outcomes) == 1 or time.perf_counter() < t_end:
        outcomes.append(run_in_process(argv, out, sessions, ref))
    timed = [o for o in outcomes[1:] if o.error is None]
    if not timed:
        return outcomes, {}
    run_s = [o.wall_s for o in timed]
    update_ms = [t * 1e3 for o in timed for t in o.update_s]
    eval_ms = [t * 1e3 for o in timed for t in o.eval_s]
    record["samples"] = {"run_s": summary(run_s), "update_ms": summary(update_ms),
                         "eval_ms": summary(eval_ms), "run_s_values": run_s,
                         "reference_child_run_s": ref.wall_s}
    return outcomes, {
        "run_s": statistics.median(run_s),
        "update_ms": statistics.median(update_ms),
        "eval_ms": statistics.median(eval_ms),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
        "ap": ref.ap,
    }


def measure_traced(args, argv, sessions: int, experiment, work: Path, record: dict):
    """Alternate untraced and traced runs; the first untraced run is the reference."""
    out = work / "out"
    outcomes, pairs, layers = [], [], []
    ref = None
    t_end = time.perf_counter() + args.seconds
    while True:
        plain = run_in_process(argv, out, sessions, ref)
        outcomes.append(plain)
        ref = ref or (plain if plain.error is None else None)
        if ref is None:
            break
        traced, per_layer, spans = traced_run(argv, out, sessions, ref, experiment,
                                              check_joint=not layers)
        outcomes.append(traced)
        if traced.error is None:
            layers.append(per_layer)
            record["spans"] = spans
            if plain.error is None:
                pairs.append((plain.wall_s, traced.wall_s))
        if time.perf_counter() >= t_end:
            break
    if not layers:
        return outcomes, {}
    metrics = {name: statistics.median(sample[name] for sample in layers if name in sample)
               for name in layers[0]}
    if pairs:  # traced minus untraced run_s, over adjacent pairs of runs
        metrics["trace.overhead_s"] = statistics.median(t - p for p, t in pairs)
    metrics["metrics.af"] = ref.af  # deterministic per seed, too seed-dependent to bound
    record["samples"] = {"untraced_traced_run_s_pairs": pairs}
    return outcomes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "acgl" / "__init__.py").is_file():
        print(f"perfbench: no acgl sources under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path.insert(0, str(SRC))
    import acgl
    from acgl import config as cfgmod

    if Path(acgl.__file__).resolve().parent != SRC / "acgl":
        print(f"perfbench: imported acgl from {acgl.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    dataset = work / "dataset"
    argv, overrides = run_argv(wl, args.seed, work / "out", dataset)
    try:
        work.mkdir()
        try:
            experiment = cfgmod.build_experiment(
                cfgmod.apply_overrides(cfgmod.load_config(wl.config), overrides))
            setups = [set_up(wl, args.seed, dataset)
                      for _ in range(1 if args.trace else SETUP_REPEATS)]
        except (OSError, subprocess.CalledProcessError, ValueError) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return EXIT_SETUP
        record["setup_s"] = setups
        sessions = planned_sessions(wl, experiment)
        if args.trace:
            outcomes, metrics = measure_traced(args, argv, sessions, experiment, work, record)
        else:
            outcomes, metrics = measure_plain(args, argv, sessions, work, setups, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [o.error for o in outcomes if o.error is not None]
    record["failures"] = failures
    missing = [n for n in names if n not in metrics]
    result = {
        "correct": not failures and not missing,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    record["result"] = result
    results_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment:", json.dumps(record["environment"]))
    for reason in failures:
        print("failed run:", reason)
    print("details:", results_file.relative_to(ROOT))
    if missing:
        print(f"perfbench: no passing run to measure {', '.join(missing)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
