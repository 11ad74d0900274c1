"""The backbone's helper thread: none at import, at most one after runs, no hang at exit."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import acgl
from acgl import backbone
from acgl.cli import EXIT_OK, main

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
    # splitting products through the one helper thread.
    rng = np.random.default_rng(0)
    A, B = rng.normal(size=(301, 700)), rng.normal(size=(700, 37))
    expected = (A @ B).tobytes()
    results = []

    def work():
        results.extend(backbone._split_matmul(A, B).tobytes() == expected for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backbone, "_SPLIT_MADDS", 0)
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 120
