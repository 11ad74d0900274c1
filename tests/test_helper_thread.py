"""The helper thread: none at import, at most one after runs, no hang at exit, shared safely."""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from acgl import harness, threads
from acgl.analytic import AnalyticState, SessionBatch, predict, update_R, update_weights
from acgl.backbone import BackboneConfig
from acgl.cli import EXIT_OK, main
from acgl.expander import ExpanderParams, expand
from acgl.harness import ExpanderConfig, ExperimentConfig, SyntheticSpec
from acgl.metrics import matrix_to_csv

from conftest import child_env, count_splits, one_call

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.cfg"
# The synthetic config widened so its base products split (400 rows x 128
# features x hidden 128); three epochs keep it quick.
SPLITTING = ["--set", "synthetic.nodes_per_class=200", "--set", "synthetic.features=128",
             "--set", "backbone.hidden=128", "--set", "backbone.epochs=3",
             "--set", "expander.dim=256"]


def child(*args, timeout):
    return subprocess.run([sys.executable, *args], env=child_env(), timeout=timeout,
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
    # Each part of these two Grams, a tile of 144 columns and a block column of
    # 56, does more than 10**6 multiply-adds.
    X, R = rng.normal(size=(130, 200)), np.triu(rng.normal(size=(200, 200))).T.copy().T
    weight = ExpanderParams(rng.normal(size=(700, 130)))
    # d = 768 and n = 200 cut the first 13 panels' updates.
    Rq = np.asfortranarray(np.triu(rng.normal(size=(768, 768))) + 5 * np.eye(768))
    Xq = rng.normal(size=(200, 768))
    jobs = [lambda: threads.split_matmul(A, B), lambda: expand(A, weight),
            lambda: threads.split_gram(X), lambda: threads.split_gram(R),
            lambda: threads.split_tpqrt(Rq, Xq)[0]]
    with pytest.MonkeyPatch.context() as mp:
        one_call(mp)
        expected = [job().tobytes() for job in jobs]
    results = []

    def work():
        for _ in range(10):
            results.extend(job().tobytes() == want for job, want in zip(jobs, expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            splits = count_splits(mp)
            callers = [threading.Thread(target=work) for _ in range(6)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * 300
    # Per round, one hand-off for each of the first four jobs and one per cut QR panel.
    assert len(splits) == 60 * (4 + 13)
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
    def outputs():
        r = harness.run_experiment(BIG_SESSIONS_SHAPED)
        return matrix_to_csv(r.matrix), r.state.weights.tobytes(), r.state.R.tobytes()

    grams = []
    split_gram = threads.split_gram
    monkeypatch.setattr(threads, "split_gram", lambda X: grams.append(X.shape[0]) or
                        split_gram(X))
    with pytest.MonkeyPatch.context() as mp:
        one_call(mp)
        one_thread = outputs()
    calls = count_splits(monkeypatch)
    assert outputs() == one_thread
    assert calls
    # The rows of each Gram: the base's, then R's and the rows' of each session
    # through the Gram path, in each of the two runs.
    assert grams == [960, 128, 240, 128, 240] * 2


def gram_parts_in_turn(X, h):
    """The Gram's (h, h) tile and its block column right of h, in turn on the calling thread."""
    gram = np.zeros((X.shape[1],) * 2, order="F")
    np.matmul(X[:, :h].T, X[:, :h], out=gram[:h, :h])
    np.matmul(X.T, X[:, h:], out=gram[:, h:])
    return gram


# (routine, shape, each part's multiply-adds). A row-split product's shape
# is (rows, inner, cols) and its parts the row halves, cut at a multiple of
# 48 rows; a Gram's is (n, d, h), h its tile edge, and its parts the tile's
# syrk (n h^2 / 2) and the block column; a QR update's is (d, n), and its
# parts are the first panel's column halves, n * 32 multiply-adds a column.
RULE_CASES = {
    "matmul_both_halves_above": ("matmul", (80, 626, 50), (48 * 626 * 50, 32 * 626 * 50)),
    "matmul_one_half_at_the_floor": ("matmul", (80, 625, 50), (48 * 625 * 50, 32 * 625 * 50)),
    "matmul_odd_rows": ("matmul", (301, 700, 37), (144 * 700 * 37, 157 * 700 * 37)),
    "matmul_no_aligned_cut": ("matmul", (2, 3000, 80), (0, 2 * 3000 * 80)),
    "gram_both_parts_above": ("gram", (97, 200, 144), (97 * 144**2 / 2, 97 * 200 * 56)),
    "gram_tile_below": ("gram", (96, 200, 144), (96 * 144**2 / 2, 96 * 200 * 56)),
    "gram_column_above": ("gram", (1389, 60, 48), (1389 * 48**2 / 2, 1389 * 60 * 12)),
    "gram_column_below": ("gram", (1388, 60, 48), (1388 * 48**2 / 2, 1388 * 60 * 12)),
    "gram_no_column": ("gram", (2000, 30, 30), (2000 * 30**2 / 2, 0)),
    "tpqrt_both_halves_above": ("tpqrt", (768, 89), (89 * 32 * 384, 89 * 32 * 352)),
    "tpqrt_one_half_below": ("tpqrt", (768, 88), (88 * 32 * 384, 88 * 32 * 352)),
    "tpqrt_cora_session": ("tpqrt", (2048, 232), (232 * 32 * 1008,) * 2),
}


@pytest.mark.parametrize("routine, shape, parts", RULE_CASES.values(), ids=RULE_CASES)
def test_a_product_hands_off_exactly_when_each_part_exceeds_the_floor(monkeypatch, routine,
                                                                       shape, parts):
    rng = np.random.default_rng(sum(shape))
    if routine == "matmul":
        rows, inner, cols = shape
        A, B = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
        run, want = lambda: threads.split_matmul(A, B), A @ B
    elif routine == "gram":
        n, d, h = shape
        X = rng.normal(size=(n, d))
        run, want = lambda: threads.split_gram(X), gram_parts_in_turn(X, h)
    else:
        d, n = shape
        R = np.asfortranarray(np.triu(rng.normal(size=(d, d))) + 5 * np.eye(d))
        X = rng.normal(size=(n, d))
        run, want = lambda: threads.split_tpqrt(R, X)[0], scipy.linalg.lapack.dtpqrt(0, 32, R, X)[0]
    calls = count_splits(monkeypatch)
    got = run()
    assert bool(calls) == (min(parts) > threads.SMALL_GEMM_MADDS)
    assert got.tobytes() == want.tobytes()


def scored_state(rng, d, C):
    """C random weight columns at d features, with R = I."""
    return AnalyticState(weights=rng.normal(size=(d, C)), R=np.eye(d))


# (test rows, d, C, whether the score product is cut). stream40 scores 20
# rows a task at d = 512 and cora_csv 78 rows a one-class task at d = 2048;
# neither reaches the floor. cora_csv's base task (312 rows) is cut at row
# 144 from C = 4, and big_sessions' one-class tasks (500 rows) at row 240
# from C = 5.
SCORE_CASES = [(20, 512, 40, False), (78, 2048, 7, False), (312, 2048, 4, True),
               (500, 1024, 4, False), (500, 1024, 5, True), (500, 1024, 6, True)]


@pytest.mark.parametrize("rows, d, C, cut", SCORE_CASES)
def test_scores_are_cut_only_above_the_floor_and_keep_every_bit(monkeypatch, rows, d, C, cut):
    rng = np.random.default_rng(rows + C)
    X, state = np.abs(rng.normal(size=(rows, d))), scored_state(rng, d, C)
    scores = X @ state.weights
    with pytest.MonkeyPatch.context() as mp:
        one_call(mp)
        want = predict(X, state)
    calls = count_splits(monkeypatch)
    got = predict(X, state)
    assert len(calls) == cut
    assert got.tobytes() == want.tobytes() == scores.argmax(axis=1).tobytes()
    assert threads.split_matmul(X, state.weights).tobytes() == scores.tobytes()


# (session rows, d, C existing classes, products cut). At stream40's last
# session neither X @ W nor X.T @ [-XW, Y] reaches the floor. cora_csv's
# sessions cut the right-hand side from C = 4 (at row 1008 of d) and X @ W
# from C = 6 (at row 96); big_sessions' both from C = 4.
UPDATE_CASES = [(60, 512, 39, 0), (232, 2048, 3, 0), (232, 2048, 4, 1), (232, 2048, 6, 2),
                (500, 1024, 6, 2), (1500, 1024, 4, 2)]


@pytest.mark.parametrize("n, d, C, cut", UPDATE_CASES)
def test_weight_update_products_are_cut_only_above_the_floor_and_keep_every_bit(
        monkeypatch, n, d, C, cut):
    rng = np.random.default_rng(n + C)
    state = scored_state(rng, d, C)
    batch = SessionBatch(np.abs(rng.normal(size=(n, d))), np.ones((n, 1)))
    with pytest.MonkeyPatch.context() as mp:
        one_call(mp)
        want = update_weights(state, batch)
    calls = count_splits(monkeypatch)
    update_R(state.R, batch.features)
    factor_parts = len(calls)
    got = update_weights(state, batch)
    assert len(calls) == 2 * factor_parts + cut
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.R.tobytes() == want.R.tobytes()
