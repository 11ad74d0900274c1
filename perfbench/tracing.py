"""Per-module split of one `acgl run`, from spans around acgl's call sites.

The library is not instrumented. Instead, for the length of one run, the
module attributes the library calls through are replaced by wrappers that
record a parent-linked timing span per call. A span's self time is its
duration minus the time covered by its child spans.

Operation counts are computed from array shapes (labelled "computed"): they
count the multiply-adds of the current algorithm, two flops each, and ignore
element-wise work.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from acgl import analytic, backbone, cli, harness
from acgl.graph import build_session_plan, default_base_size

# (module whose attribute is replaced, attribute, span name). A span name is
# "<defining module>.<function>".
WRAPPED = (
    (harness, "load_dataset", "datasets.load_dataset"),
    (harness, "generate_synthetic", "synthetic.generate_synthetic"),
    (harness, "session_subgraph", "graph.session_subgraph"),
    (backbone, "session_subgraph", "graph.session_subgraph"),
    (harness, "normalize_adjacency", "graph.normalize_adjacency"),
    (backbone, "normalize_adjacency", "graph.normalize_adjacency"),
    (harness, "train_base", "backbone.train_base"),
    (backbone, "gcn_backward", "backbone.gcn_backward"),
    (backbone, "adam_step", "backbone.adam_step"),
    (harness, "gcn_forward", "backbone.gcn_forward"),
    (harness, "expand", "expander.expand"),
    (harness, "align_base", "analytic.align_base"),
    (harness, "update_weights", "analytic.update_weights"),
    (analytic, "update_R", "analytic.update_R"),
    (harness, "predict", "analytic.predict"),
    (harness, "evaluate_task", "harness.evaluate_task"),
    (cli, "emit_report", "metrics.emit_report"),
)
ROOT = "run"
# Calls the current harness repeats, one per extraction or evaluated task: a
# feature cache or a batched evaluation may call them less often, never more.
AT_MOST_PLANNED = frozenset({
    "graph.session_subgraph", "graph.normalize_adjacency", "backbone.gcn_forward",
    "expander.expand", "analytic.predict", "harness.evaluate_task",
})
MODULES = ("datasets", "synthetic", "graph", "backbone", "expander", "analytic", "harness", "metrics")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory recorder of parent-linked spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._undo = []

    def _start(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self._start(name)
        try:
            yield s
        finally:
            self._end(s)

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` by a spanned call; ``hook`` sees each call after its span ends."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            s = self._start(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(s)
            if hook is not None:
                hook(s, args, result)
            return result

        setattr(module, attr, spanned)
        self._undo.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[int, float]:
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}


# Computed flop counts of the current implementations.

def gcn_backward_flop(adj, X, params) -> float:
    """One epoch: forward (X W0, A., . W1, A.) and backward (A dL, H^T, W1^T, A X, (AX)^T)."""
    n, f = X.shape
    h, c = params.W1.shape
    return 4.0 * n * f * h + 6.0 * n * h * c + 2.0 * adj.nnz * (h + 2 * c + f)


def align_base_flop(n: int, d: int, c: int) -> float:
    """X^T X, X^T Y, two Cholesky factors of the Gram, a C-column and a d-column solve."""
    return 2.0 * n * d * d + 2.0 * n * d * c + 2.0 * d**3 / 3 + 2.0 * d * d * c + 2.0 * d**3


def update_R_flop(n: int, d: int) -> tuple[str, float]:
    """Branch update_R takes for an n-row session against a d x d R, and its flops."""
    if n < d:  # Woodbury: X R, K X^T, n x n Cholesky, n x n solve of d columns, K^T (.)
        return "woodbury", 4.0 * n * d * d + 4.0 * n * n * d + n**3 / 3
    # direct: invert R back to the Gram, add X^T X, invert again
    return "direct", 14.0 * d**3 / 3 + 2.0 * n * d * d


class RunProbe:
    """Spans one `acgl run` and derives the per-module numbers from it.

    Also keeps what the checks need: the input graph, the session batches
    that reach ``align_base``/``update_weights``, and the final state.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.graph = None
        self.dataset_bytes = 0
        self.batches: list[tuple[np.ndarray, np.ndarray]] = []
        self.gamma = None
        self.state = None
        self.extraction_keys: list = []
        self._subgraph_classes: dict[int, tuple] = {}

    def __enter__(self) -> "RunProbe":
        hooks = {
            "datasets.load_dataset": self._on_load,
            "synthetic.generate_synthetic": self._on_generate,
            "graph.session_subgraph": self._on_subgraph,
            "backbone.gcn_backward": self._on_backward,
            "backbone.gcn_forward": self._on_forward,
            "analytic.align_base": self._on_align,
            "analytic.update_weights": self._on_update,
            "analytic.update_R": self._on_update_R,
        }
        for module, attr, name in WRAPPED:
            self.tracer.wrap(module, attr, name, hooks.get(name))
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.unwrap_all()

    # hooks: (span, positional args, result)

    def _on_load(self, span, args, graph):
        self.graph = graph
        self.dataset_bytes = sum(p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())

    def _on_generate(self, span, args, graph):
        self.graph = graph

    def _on_subgraph(self, span, args, sub):
        classes = tuple(sorted(int(c) for c in args[1]))
        self._subgraph_classes[id(sub.features)] = (weakref.ref(sub.features), classes)

    def _on_forward(self, span, args, result):
        X = args[1]
        ref, classes = self._subgraph_classes.get(id(X), (None, None))
        self.extraction_keys.append(classes if ref is not None and ref() is X else ("graph", X.shape))

    def _on_backward(self, span, args, result):
        span.attrs["flop"] = gcn_backward_flop(args[0], args[1], args[2])

    def _on_align(self, span, args, state):
        X0, Y0 = np.asarray(args[0]), np.asarray(args[1])
        span.attrs["flop"] = align_base_flop(X0.shape[0], X0.shape[1], Y0.shape[1])
        self.batches = [(X0, Y0)]
        self.gamma = float(args[2])
        self.state = state

    def _on_update(self, span, args, state):
        batch = args[1]
        self.batches.append((batch.features, batch.targets))
        self.state = state

    def _on_update_R(self, span, args, result):
        n, d = np.asarray(args[1]).shape
        span.attrs["branch"], span.attrs["flop"] = update_R_flop(n, d)

    # derived numbers

    def counts(self) -> Counter:
        c = Counter(s.name for s in self.tracer.spans if s.name != ROOT)
        for s in self.tracer.spans:
            if s.name == "analytic.update_R":
                c[f"analytic.update_R.{s.attrs['branch']}"] += 1
        return c

    def expected_counts(self, experiment) -> Counter:
        """Call counts implied by the session plan of ``experiment`` on the captured graph."""
        graph = self.graph
        c0 = experiment.c0 if experiment.c0 is not None else default_base_size(graph.num_classes)
        plan = build_session_plan(graph, c0, experiment.k)  # the workloads keep class order
        S = plan.num_sessions
        tasks = S * (S + 1) // 2
        epochs = experiment.backbone.epochs
        d = experiment.expander.dim
        branches = Counter()
        for group in plan.groups[1:]:
            n = int((graph.train_mask & np.isin(graph.labels, group)).sum())
            branches[update_R_flop(n, d)[0]] += 1
        from_csv = experiment.dataset_path is not None
        return Counter({
            "datasets.load_dataset": int(from_csv),
            "synthetic.generate_synthetic": int(not from_csv),
            "graph.session_subgraph": 1 + S + tasks,
            "graph.normalize_adjacency": 1 + S + tasks,
            "backbone.train_base": 1,
            "backbone.gcn_backward": epochs,
            "backbone.adam_step": epochs,
            "backbone.gcn_forward": S + tasks,
            "expander.expand": S + tasks,
            "analytic.align_base": 1,
            "analytic.update_weights": S - 1,
            "analytic.update_R": S - 1,
            "analytic.update_R.woodbury": branches["woodbury"],
            "analytic.update_R.direct": branches["direct"],
            "analytic.predict": tasks,
            "harness.evaluate_task": tasks,
            "metrics.emit_report": 1,
        })

    def coverage_problems(self, experiment) -> list[str]:
        """Wrapped names whose call count the session plan rules out.

        Names in AT_MOST_PLANNED may be called 1 to the planned number of
        times; every other name exactly as often as the plan implies. Either
        way a refactor that bypasses a wrapped name shows as a failure.
        """
        if self.graph is None:
            return ["no dataset load or synthetic generation was seen"]
        seen, want = self.counts(), self.expected_counts(experiment)
        problems = []
        for name in sorted(set(seen) | set(want)):
            if name in AT_MOST_PLANNED:
                if not 1 <= seen[name] <= want[name]:
                    problems.append(f"{name}: {seen[name]} calls, plan allows 1 to {want[name]}")
            elif seen[name] != want[name]:
                problems.append(f"{name}: {seen[name]} calls, plan implies {want[name]}")
        return problems

    def joint_rel_err(self) -> float:
        """Relative Frobenius error of the final W against joint_solve on the captured batches."""
        joint = analytic.joint_solve(self.batches, self.gamma)
        return float(np.linalg.norm(self.state.weights - joint) / np.linalg.norm(joint))

    def layer_metrics(self) -> dict[str, float]:
        spans = self.tracer.spans
        self_time = self.tracer.self_times()
        total = defaultdict(float)
        flop = defaultdict(float)
        module_self = dict.fromkeys(MODULES, 0.0)
        for s in spans:
            total[s.name] += s.duration
            flop[s.name] += s.attrs.get("flop", 0.0)
            if s.name != ROOT:
                module_self[s.name.split(".")[0]] += self_time[s.id]
        calls = self.counts()
        out = {
            "datasets.load_dataset.s": total["datasets.load_dataset"],
            "datasets.load_dataset.mb": self.dataset_bytes / 1e6,
            "synthetic.generate_synthetic.s": total["synthetic.generate_synthetic"],
        }
        for name in ("graph.session_subgraph", "graph.normalize_adjacency",
                     "backbone.gcn_backward", "backbone.gcn_forward", "expander.expand",
                     "analytic.predict", "harness.evaluate_task"):
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
        for name in ("backbone.train_base", "backbone.adam_step", "analytic.align_base",
                     "analytic.update_R", "metrics.emit_report"):
            out[f"{name}.s"] = total[name]
        for name in ("backbone.gcn_backward", "analytic.align_base", "analytic.update_R"):
            out[f"{name}.gflop"] = flop[name] / 1e9
            out[f"{name}.gflop_per_s"] = flop[name] / 1e9 / total[name] if total[name] else 0.0
        out["analytic.update_R.woodbury_calls"] = calls["analytic.update_R.woodbury"]
        out["analytic.update_R.direct_calls"] = calls["analytic.update_R.direct"]
        out["analytic.w_correction.s"] = sum(
            self_time[s.id] for s in spans if s.name == "analytic.update_weights")
        out["analytic.state_mb"] = (self.state.weights.nbytes + self.state.inv_gram.nbytes) / 1e6
        keys = self.extraction_keys
        out["harness.extract_useful_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        for module, seconds in module_self.items():
            out[f"{module}.self_s"] = seconds
        out["other.self_s"] = sum(self_time[s.id] for s in spans if s.name == ROOT)
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                 "end": s.end, **s.attrs} for s in self.tracer.spans]
