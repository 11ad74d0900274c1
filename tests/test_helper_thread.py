"""The helper thread: none at import, at most one after runs, no hang at exit, shared safely."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import acgl
from acgl import harness, threads
from acgl.backbone import BackboneConfig
from acgl.cli import EXIT_OK, main
from acgl.expander import ExpanderParams, expand
from acgl.harness import ExpanderConfig, ExperimentConfig, SyntheticSpec
from acgl.metrics import matrix_to_csv

from conftest import count_splits

SRC = str(Path(acgl.__file__).resolve().parents[1])
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.cfg"
# The synthetic config widened so its base products split (400 rows x 128
# features x hidden 128); three epochs keep it quick.
SPLITTING = ["--set", "synthetic.nodes_per_class=200", "--set", "synthetic.features=128",
             "--set", "backbone.hidden=128", "--set", "backbone.epochs=3",
             "--set", "expander.dim=256"]


def child(*args, timeout):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                          capture_output=True, text=True)


def test_import_starts_no_thread():
    done = child("-c", "import threading, acgl, acgl.cli; print(threading.active_count())",
                 timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def test_runs_leave_at_most_one_extra_thread(tmp_path, monkeypatch):
    splits = count_splits(monkeypatch)
    before = threading.active_count()
    for i in range(2):
        assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path / str(i)),
                     *SPLITTING]) == EXIT_OK
    assert splits
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("acgl-matmul")] == ["acgl-matmul_0"]
    assert threading.active_count() <= before + 1


def test_cli_child_that_splits_exits(tmp_path):
    done = child("-m", "acgl.cli", "run", "--config", str(CONFIG), "--out", str(tmp_path),
                 *SPLITTING, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("AP=")


def test_concurrent_callers_share_the_helper_and_keep_every_bit():
    # Six caller threads on two cores, switching every microsecond, each
    # handing parts of split products, expansions, Grams and QR panel updates
    # to the one helper thread. The QR updates run in scipy's LAPACK without
    # the GIL, so they also run concurrently with each other.
    rng = np.random.default_rng(0)
    A, B = rng.normal(size=(301, 700)), rng.normal(size=(700, 37))
    X, R = rng.normal(size=(130, 100)), np.triu(rng.normal(size=(100, 100))).T.copy().T
    weight = ExpanderParams(rng.normal(size=(700, 130)))
    # d = 768 and n = 200 cut the first 13 panels' updates.
    Rq = np.asfortranarray(np.triu(rng.normal(size=(768, 768))) + 5 * np.eye(768))
    Xq = rng.normal(size=(200, 768))
    jobs = [lambda: threads.split_matmul(A, B), lambda: expand(A, weight),
            lambda: threads.split_gram(X), lambda: threads.split_gram(R),
            lambda: threads.split_tpqrt(Rq, Xq)[0]]
    expected = [job().tobytes() for job in jobs]
    results = []

    def work():
        for _ in range(10):
            results.extend(job().tobytes() == want for job, want in zip(jobs, expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(threads, "SPLIT_MADDS", 0)
            callers = [threading.Thread(target=work) for _ in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * 300
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("acgl-matmul")] == ["acgl-matmul_0"]


# big_sessions in miniature: four base classes, then one-class sessions of
# 240 train rows against an expanded width of 128, so update_R takes the
# Gram path; the base Gram and expansions are above the split threshold.
BIG_SESSIONS_SHAPED = ExperimentConfig(
    synthetic=SyntheticSpec(classes=6, nodes_per_class=400, features=32, homophily=0.5,
                            class_sep=0.2),
    c0=4,
    k=1,
    backbone=BackboneConfig(hidden=32, epochs=3),
    expander=ExpanderConfig(dim=128),
    seed=3,
)


def test_big_sessions_shaped_run_is_bit_identical_on_one_or_two_threads(monkeypatch):
    def outputs(threshold):
        monkeypatch.setattr(threads, "SPLIT_MADDS", threshold)
        r = harness.run_experiment(BIG_SESSIONS_SHAPED)
        return matrix_to_csv(r.matrix), r.state.weights.tobytes(), r.state.R.tobytes()

    grams = []
    split_gram = threads.split_gram
    monkeypatch.setattr(threads, "split_gram", lambda X: grams.append(X.shape[0]) or
                        split_gram(X))
    one_thread = outputs(math.inf)
    calls = count_splits(monkeypatch)
    assert outputs(0) == one_thread
    assert calls
    # The rows of each Gram: the base's, then R's and the rows' of each session
    # through the Gram path, in each of the two runs.
    assert grams == [960, 128, 240, 128, 240] * 2

