"""The benchmark's workloads: one `acgl run` config each.

Every workload is a closed loop of whole `acgl run` invocations, one after
another in a single process. The run's global seed is the benchmark's
``--seed``, so the seed picks the synthetic graph and the backbone and
expander initialisations. ``cora_csv`` runs the repository's
``configs/cora.cfg`` on a dataset directory written during set-up and read
back through ``dataset.path``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md."""

    name: str
    config: Path
    csv_dataset: dict = field(default_factory=dict)  # generate_synthetic kwargs; empty: in-run synthetic


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cora_csv",
            BENCH_DIR.parent / "configs" / "cora.cfg",
            csv_dataset=dict(num_classes=7, nodes_per_class=387, d=1433,
                             homophily=0.8, class_sep=0.05),
        ),
        Workload("stream40", CONFIG_DIR / "stream40.cfg"),
        Workload("big_sessions", CONFIG_DIR / "big_sessions.cfg"),
    )
}
