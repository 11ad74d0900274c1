import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgl import threads
from acgl.analytic import (
    AnalyticState,
    SessionBatch,
    _check_factor,
    align_base,
    joint_solve,
    predict,
    update_R,
    update_weights,
)
from acgl.config import build_experiment, load_config
from acgl.harness import evaluate_task

from conftest import (
    count_splits,
    one_call,
    one_hot,
    oracle_predict,
    run_recording_batches,
    run_recursion,
)


def random_batch(rng, n, d, class_ids):
    X = rng.normal(size=(n, d))
    labels = rng.choice(list(class_ids), size=n)
    return SessionBatch(features=X, targets=one_hot(labels, class_ids))


def random_stream(rng, d, num_sessions, classes_per_session=2, n_lo=3, n_hi=20):
    """Disjoint-class session stream of SessionBatch values."""
    batches = []
    next_class = 0
    for _ in range(num_sessions):
        ids = tuple(range(next_class, next_class + classes_per_session))
        next_class += classes_per_session
        n = int(rng.integers(n_lo, n_hi + 1))
        # Every class needs at least one row so no target column is empty.
        n = max(n, classes_per_session)
        X = rng.normal(size=(n, d))
        labels = np.concatenate([np.asarray(ids), rng.choice(ids, size=n - len(ids))])
        batches.append(SessionBatch(features=X, targets=one_hot(labels, ids)))
    return batches


def relu_stream(seed, session_rows, h=32, d=256, classes_per_session=2):
    """Expanded-feature-like stream: relu of an h-dim input lifted to d > h.

    Session s has ``session_rows[s]`` rows, so its Gram has rank at most
    that count. All sessions share one h-dim pre-activation subspace, so the
    accumulated Gram stays badly conditioned and gamma sets its smallest
    eigenvalues.
    """
    rng = np.random.default_rng(seed)
    lift = rng.uniform(-1 / np.sqrt(h), 1 / np.sqrt(h), size=(h, d))
    batches = []
    for s, rows in enumerate(session_rows):
        ids = tuple(range(s * classes_per_session, (s + 1) * classes_per_session))
        labels = np.concatenate([np.asarray(ids), rng.choice(ids, size=rows - len(ids))])
        X = np.maximum(rng.normal(size=(rows, h)) @ lift, 0.0)
        batches.append(SessionBatch(features=X, targets=one_hot(labels, ids)))
    return batches


@st.composite
def relu_stream_shapes(draw):
    """(d, h, rows) of a relu_stream: h < d/2 and 2 to 2d rows per session."""
    d = draw(st.integers(16, 128))
    h = draw(st.integers(1, (d - 1) // 2))
    sessions = draw(st.integers(2, 12))
    rows = draw(st.lists(st.integers(2, 2 * d), min_size=sessions, max_size=sessions))
    return d, h, rows


# Small integers, signed zeros included, make tied scores common.
TIE_PRONE = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def tie_prone_cases(draw, min_rows=0):
    """(X, W): small integer-valued X and W, and some all-zero rows of X."""
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 6))
    n = draw(st.integers(min_rows, 8))
    W = np.array(draw(st.lists(TIE_PRONE, min_size=d * c, max_size=d * c))).reshape(d, c)
    X = np.array(draw(st.lists(TIE_PRONE, min_size=n * d, max_size=n * d))).reshape(n, d)
    X[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)] = 0.0
    return X, W


def rel_fro(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def upper_factor(gram):
    return scipy.linalg.cholesky(gram, lower=False)


class TestAlignBase:
    def test_identity_case(self):
        state = align_base(np.eye(2), np.eye(2), gamma=1.0)
        np.testing.assert_allclose(state.weights, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(state.inv_gram, 0.5 * np.eye(2), atol=1e-12)

    def test_heavy_shrinkage_limit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        Y = one_hot(rng.integers(2, size=10), (0, 1))
        state = align_base(X, Y, gamma=1e12)
        assert np.linalg.norm(state.weights) < 1e-9

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 8))
        Y = one_hot(rng.integers(3, size=20), (0, 1, 2))
        state = align_base(X, Y, gamma=0.01)
        expected = np.linalg.inv(X.T @ X + 0.01 * np.eye(8)) @ (X.T @ Y)
        assert rel_fro(state.weights, expected) < 1e-9

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 12))
        Y = one_hot(rng.integers(4, size=30), range(4))
        gamma = 0.5
        state = align_base(X, Y, gamma)
        lhs = (X.T @ X + gamma * np.eye(12)) @ state.weights
        rhs = X.T @ Y
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            align_base(np.eye(2), np.eye(2), gamma=0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValueError, match=re.escape(
                f"gamma must be finite and positive (got {gamma!r})")):
            align_base(np.eye(2), np.eye(2), gamma=gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.eye(3)
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            align_base(X, np.eye(3), gamma=1.0)

    @pytest.mark.parametrize("targets, match", [
        # Column 1 is empty: its class would get an all-zero weight column.
        (np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), "target column 1 has no training rows"),
        (np.ones(3), r"must be 2-D and share their row count: .* targets shape \(3,\)"),
        (np.eye(2), r"must be 2-D and share their row count: features shape \(3, 3\), "
                    r"targets shape \(2, 2\)"),
    ], ids=["empty_column", "one_dimensional", "row_mismatch"])
    def test_targets_follow_the_session_batch_rule(self, targets, match):
        X, Y = np.eye(3), targets.copy()
        with pytest.raises(ValueError, match=match):
            align_base(X, Y, gamma=1.0)
        with pytest.raises(ValueError, match=match):
            SessionBatch(X, Y)

    def test_inputs_stay_writeable(self):
        X, Y = np.eye(3), np.eye(3)
        align_base(X, Y, gamma=1.0)
        assert X.flags.writeable and Y.flags.writeable

    def test_r_is_inverse_of_gram(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 6))
        Y = one_hot(rng.integers(2, size=15), (0, 1))
        state = align_base(X, Y, gamma=0.1)
        gram = X.T @ X + 0.1 * np.eye(6)
        assert rel_fro(state.R.T @ state.R, gram) < 1e-12
        np.testing.assert_allclose(state.inv_gram @ gram, np.eye(6), atol=1e-8)

    # (n, d, C, whether the right-hand side X^T Y is cut). cora_csv's base
    # session is 929 rows at d = 2048 with four classes, whose X^T Y is cut at
    # row 1008 of d; stream40's is 60 rows at d = 512 with one class, one plain
    # product.
    @pytest.mark.parametrize("n, d, C, cut", [(929, 2048, 4, True), (60, 512, 1, False)])
    def test_weight_step_keeps_the_bytes_of_one_solve_of_xt_y(self, monkeypatch, n, d, C,
                                                               cut):
        rng = np.random.default_rng(n)
        X = np.abs(rng.normal(size=(n, d)))
        Y = one_hot(np.arange(n) % C, range(C))
        calls = count_splits(monkeypatch)
        gram = threads.split_gram(X)
        gram_parts = len(calls)
        gram[np.diag_indices_from(gram)] += 1.0
        R, info = scipy.linalg.lapack.dpotrf(gram, lower=0, clean=1)
        assert info == 0
        W = scipy.linalg.cho_solve((R, False), X.T @ Y, check_finite=False)
        state = align_base(X, Y, gamma=1.0)
        assert len(calls) == 2 * gram_parts + cut
        assert state.weights.tobytes() == W.tobytes()
        assert state.R.tobytes() == R.tobytes()

    def test_inv_gram_of_singular_factor_rejected(self):
        state = AnalyticState(weights=np.zeros((3, 1)), R=np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="^matrix numerically singular: LAPACK info 2$"):
            state.inv_gram


@st.composite
def gram_inputs(draw):
    """Rows (n, d), or an upper-triangular (d, d) factor, C- or Fortran-ordered.

    n < d and n >= d both occur, and d is mostly not a multiple of 48.
    """
    d = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from("CF"))
    if draw(st.booleans()):
        return np.asarray(np.triu(rng.normal(size=(d, d))), order=order)
    n = draw(st.integers(0, 2 * d + 5))
    return np.asarray(np.maximum(rng.normal(size=(n, d)), 0.0), order=order)


def upper(gram):
    return gram[np.triu_indices_from(gram)]


class TestGram:
    @settings(max_examples=80, deadline=None)
    @given(X=gram_inputs())
    @example(X=np.ones((50, 100)))                                # n < d, one tile of 48
    @example(X=np.ones((150, 97), order="F"))                     # n >= d, d = 2 * 48 + 1
    @example(X=np.asfortranarray(np.triu(np.ones((130, 130)))))  # a factor R
    @example(X=np.ones((40, 30), order="F"))                      # tile edge rounds to 0: d
    def test_bytes_do_not_depend_on_the_thread(self, X):
        # With the floor at 0, a Gram hands off its block column whenever it
        # has rows and the column is not empty; the floor never moves the tile.
        n, d = X.shape
        h = min(48 * round(0.707 * d / 48), d) or d
        with pytest.MonkeyPatch.context() as mp:
            one_call(mp)
            here = threads.split_gram(X)
            mp.setattr(threads, "SMALL_GEMM_MADDS", 0)
            calls = count_splits(mp)
            split = threads.split_gram(X)
        assert bool(calls) == (n > 0 and h < d)
        assert split.tobytes() == here.tobytes()
        assert split.flags.f_contiguous
        np.testing.assert_allclose(upper(split), upper(X.T @ X), rtol=1e-13, atol=1e-13)

    # At the expanded widths of stream40, big_sessions and configs/cora.cfg a
    # factor's tiles give every bit of the one-call R^T R (OpenBLAS 0.3.31,
    # one BLAS thread), so the R half of a Gram-path session keeps the bytes
    # of the whole product. The rows' half need not: OpenBLAS cuts the inner
    # dimension of a gemm and of a syrk apart differently, and at
    # big_sessions' 1500 rows the last bits of the right block column move.
    @pytest.mark.parametrize("d", [512, 1024, 2048])
    def test_factor_gram_equals_the_whole_product_byte_for_byte(self, monkeypatch, d):
        calls = count_splits(monkeypatch)
        R = np.asfortranarray(np.triu(np.random.default_rng(d).normal(size=(d, d))))
        assert upper(threads.split_gram(R)).tobytes() == upper(R.T @ R).tobytes()
        assert calls

    @pytest.mark.parametrize("one_thread", [False, True], ids=["helper", "one_thread"])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_peak_memory_is_the_result_plus_one_buffer_or_tile(self, monkeypatch, one_thread,
                                                                blocks):
        # One block, the base Gram, allocates only the result, bounded here by
        # the result plus its upper-left tile. Two blocks, update_R's Gram
        # path, also the second Gram's (d, d) buffer, summed into the first,
        # which potrf factors in place. A sum into a further buffer, or a
        # copy for potrf, would add d^2 doubles. 64 KiB covers the Python
        # objects of the hand-off.
        if one_thread:
            one_call(monkeypatch)
        rng = np.random.default_rng(0)
        d, n = 480, 600
        X = rng.normal(size=(n, d))
        if blocks == 1:
            gram, args = threads.split_gram, (X,)
        else:
            gram, args = update_R, (np.asfortranarray(np.triu(rng.normal(size=(d, d)))), X)
        h = 48 * round(0.707 * d / 48)
        bound = d * d * 8 + (h * h * 8 if blocks == 1 else d * d * 8) + 64 * 1024
        gram(*args)  # starts the helper thread outside the measurement
        tracemalloc.start()
        try:
            result = gram(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.nbytes <= peak <= bound


def qr_case(d, n, seed=0):
    """An upper-triangular (d, d) factor with a safe diagonal and (n, d) rows."""
    rng = np.random.default_rng(seed)
    R = np.asfortranarray(np.triu(rng.normal(size=(d, d))) + 5 * np.eye(d))
    return R, rng.normal(size=(n, d))


class TestSplitTpqrt:
    # (d, n, whether the first panel is cut). cora_csv's sessions are (2048, 232)
    # and stream40's (512, 60). At d = 768 the first panel's halves are 384 and
    # 352 columns of n * 32 rows, so n = 89 is the smallest cut: 89 * 32 * 352
    # is just above 10**6 multiply-adds, 88 * 32 * 352 just below. A cut panel
    # is two dtprfb calls. The Fortran copies of R_prev and Xn are one more
    # hand-off where each column half copies more than 10**6 entries, which
    # among these cases is at d = 1536 and d = 2048 alone.
    @pytest.mark.parametrize("d, n, cut", [
        (2048, 232, True), (2048, 336, True), (1024, 600, True), (1024, 500, True),
        (1536, 777, True), (768, 200, True), (2048, 100, True), (2048, 20, False),
        (512, 60, False), (64, 10, False), (300, 0, False), (300, 1, False),
        (300, 150, False), (300, 299, True), (20, 5, False), (768, 89, True),
        (768, 88, False),
    ])
    def test_bytes_equal_one_dtpqrt_call(self, monkeypatch, d, n, cut):
        R, X = qr_case(d, n)
        before = R.tobytes(), X.tobytes()
        want, _, _, info = scipy.linalg.lapack.dtpqrt(0, min(32, d), R, X)
        assert info == 0
        calls = count_splits(monkeypatch)
        lapack, routines = threads._lapack, []
        monkeypatch.setattr(threads, "_lapack", lambda name: routines.append(name) or lapack(name))
        got, info = threads.split_tpqrt(R, X)
        assert info == 0
        panels = routines.count("dtprfb") // 2
        assert bool(panels) == cut
        assert len(calls) == panels + (d >= 1536)
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous
        one_call(monkeypatch)
        assert threads.split_tpqrt(R, X)[0].tobytes() == want.tobytes()
        assert (R.tobytes(), X.tobytes()) == before

    @pytest.mark.parametrize("routine, d, n", [("dtpqrt2", 768, 200), ("dtpqrt", 768, 200),
                                               ("dtpqrt", 64, 10)])
    def test_every_info_is_checked(self, monkeypatch, routine, d, n):
        # A failing panel call, in the cut loop or in the one trailing call,
        # stops update_R with LAPACK's info in today's message form.
        lapack = threads._lapack

        def failing(*args):
            args[-1]._obj.value = -4  # the info argument, passed by reference

        monkeypatch.setattr(threads, "_lapack",
                            lambda name: failing if name == routine else lapack(name))
        R, X = qr_case(d, n)
        with pytest.raises(ValueError, match="^LAPACK tpqrt info -4$"):
            update_R(R, X)

    @pytest.mark.parametrize("R_shape, X_shape", [((0, 0), (0, 0)), ((4, 3), (2, 3)),
                                                  ((4, 4), (2, 3)), ((4, 4), (8,))])
    def test_shapes_are_checked_before_lapack(self, R_shape, X_shape):
        with pytest.raises(ValueError, match=re.escape(f"shapes {R_shape} and {X_shape}")):
            threads.split_tpqrt(np.ones(R_shape), np.ones(X_shape))

    def test_missing_routine_is_named(self):
        with pytest.raises(RuntimeError, match="no LAPACK routine dnosuchroutine$"):
            threads._lapack("dnosuchroutine")


class TestUpdateR:
    def test_scalar_case(self):
        out = update_R(np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(out.T @ out, [[2.0]], atol=1e-12)

    def test_zero_rows_leave_r_unchanged(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        R = upper_factor(A @ A.T + np.eye(6))
        out = update_R(R, np.zeros((3, 6)))
        np.testing.assert_allclose(out, R, atol=1e-12)

    def test_empty_batch_leaves_r_unchanged(self):
        R = upper_factor(np.eye(4) * 2.0)
        out = update_R(R, np.empty((0, 4)))
        np.testing.assert_allclose(out, R, atol=1e-15)

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(16, 16))
        gram_prev = A @ A.T + np.eye(16)
        Xn = rng.normal(size=(5, 16))
        out = update_R(upper_factor(gram_prev), Xn)
        assert rel_fro(out.T @ out, gram_prev + Xn.T @ Xn) < 1e-12
        state = AnalyticState(weights=np.zeros((16, 1)), R=out)
        assert rel_fro(state.inv_gram, np.linalg.inv(gram_prev + Xn.T @ Xn)) < 1e-9

    # n = 3 < d = 16 takes the tpqrt path; n = 16 and n = 40 take the Gram
    # path. The Woodbury form and the direct inverse are two oracles for G^{-1}.
    @pytest.mark.parametrize("n", [3, 16, 40])
    def test_woodbury_and_direct_paths_agree(self, n):
        rng = np.random.default_rng(n)
        d = 16
        A = rng.normal(size=(d, d))
        gram_prev = A @ A.T + 0.5 * np.eye(d)
        Xn = rng.normal(size=(n, d))
        out = update_R(upper_factor(gram_prev), Xn)
        assert rel_fro(out.T @ out, gram_prev + Xn.T @ Xn) < 1e-12
        P = np.linalg.inv(gram_prev)
        woodbury = P - P @ Xn.T @ np.linalg.solve(np.eye(n) + Xn @ P @ Xn.T, Xn @ P)
        direct = np.linalg.inv(gram_prev + Xn.T @ Xn)
        inv_gram = AnalyticState(weights=np.zeros((d, 1)), R=out).inv_gram
        assert rel_fro(inv_gram, woodbury) < 1e-9
        assert rel_fro(inv_gram, direct) < 1e-9

    def test_output_upper_triangular(self):
        # d = 300 spans several of tpqrt's 32-column blocks; n < d takes the
        # tpqrt path and n >= d the Gram path. Both keep the whole contract.
        rng = np.random.default_rng(6)
        d = 300
        A = rng.normal(size=(d, d))
        gram_prev = A @ A.T + np.eye(d)
        R_prev = upper_factor(gram_prev)
        for n in (0, 1, d - 1, d, d + 1, 2 * d):
            Xn = rng.normal(size=(n, d))
            before = R_prev.tobytes(), Xn.tobytes()
            out = update_R(R_prev, Xn)
            assert rel_fro(out.T @ out, gram_prev + Xn.T @ Xn) < 1e-12, n
            assert not np.tril(out, -1).any(), n
            assert out.flags.f_contiguous, n
            assert np.diagonal(out).all(), n
            assert (R_prev.tobytes(), Xn.tobytes()) == before, n

    # (0, 0) has no d >= 1 for tpqrt's block size, and BLAS syrk rejects it.
    @pytest.mark.parametrize("shape, n", [((2, 3), 1), ((2, 3), 3), ((0, 0), 0)],
                             ids=["2x3_qr_side", "2x3_gram_side", "0x0"])
    def test_non_square_factor_rejected(self, shape, n):
        with pytest.raises(ValueError, match=re.escape(f"(d, d) matrix, got shape {shape}")):
            update_R(np.ones(shape), np.ones((n, shape[1])))

    @pytest.mark.parametrize("Xn", [np.ones(4), np.ones((2, 5)), np.ones((6, 5))],
                             ids=["1-D", "narrow_qr_side", "narrow_gram_side"])
    def test_batch_must_be_2d_with_d_columns(self, Xn):
        with pytest.raises(ValueError, match=re.escape(f"Xn shape {Xn.shape}")):
            update_R(np.eye(4), Xn)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [2, 6], ids=["qr_side", "gram_side"])
    def test_non_finite_features_rejected(self, n, bad):
        Xn = np.ones((n, 4))
        Xn[1, 2] = bad
        with pytest.raises(ValueError, match="^features contain non-finite values$"):
            update_R(np.eye(4), Xn)

    def test_gram_path_names_lost_gamma(self):
        # gamma = 1e-300 against rows of scale 1e10 whose columns 0 and 1 are
        # equal: the summed Gram is singular in float64. tpqrt returns a
        # diagonal entry of -8.1e-7 on these rows where sqrt(gamma) is 1e-150.
        rng = np.random.default_rng(0)
        Xn = 1e10 * rng.normal(size=(6, 4))
        Xn[:, 1] = Xn[:, 0]
        with pytest.raises(ValueError, match=r"^analytic\.update_R: .* n=6 rows at d=4 "
                                             r".* gamma is lost to rounding"):
            update_R(1e-150 * np.eye(4), Xn)

    def test_singular_input_rejected(self):
        # A zero column in both the factor and the session leaves a zero on
        # the new factor's diagonal; a NaN in the factor spreads to it.
        zero_col = SessionBatch(features=np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),
                                targets=np.eye(2))
        for R_bad in (np.zeros((3, 3)), np.diag([1.0, np.nan, 1.0])):
            state = AnalyticState(weights=np.zeros((3, 1)), R=R_bad)
            with pytest.raises(ValueError, match="singular"):
                update_weights(state, zero_col)


def lost_gamma_rows(n, d, seed=0):
    """n rows of scale 1e10 whose columns 0 and 1 are equal: gamma = 1e-300 is lost next to them."""
    Xn = 1e10 * np.random.default_rng(seed).normal(size=(n, d))
    Xn[:, 1] = Xn[:, 0]
    return Xn


def lost_gamma_probe(n, d=8):
    """From R = 1e-150 I (gamma = 1e-300), the session of :func:`lost_gamma_rows`."""
    state = AnalyticState(weights=np.zeros((d, 1)), R=1e-150 * np.eye(d))
    return state, SessionBatch(features=lost_gamma_rows(n, d), targets=np.ones((n, 1)))


LOST_GAMMA = (r"^analytic\.update_R: the Gram after a session of n={n} rows at "
              r"d=8 is numerically singular in float64 \(.*\): gamma is lost to rounding$")


class TestLostGamma:
    # n = 6 < d takes the tpqrt path, whose factor (diagonal -2.9e-6 and
    # -5.2e-5 among entries near 1e10) update_R rejects; n = 12 >= d takes
    # the Gram path, where potrf fails.
    @pytest.mark.parametrize("n", [6, 12], ids=["qr_path", "gram_path"])
    def test_probe_raises_on_both_paths_with_one_message(self, n):
        state, batch = lost_gamma_probe(n)
        with pytest.raises(ValueError, match=LOST_GAMMA.format(n=n)):
            update_weights(state, batch)

    def test_qr_path_factor_shows_lost_gamma(self):
        # The probe's smallest diagonal entries are rounding residue, so the
        # printed number depends on the BLAS kernel; the rule that fired does not.
        state, batch = lost_gamma_probe(6)
        with pytest.raises(ValueError) as info:
            update_weights(state, batch)
        bound = re.search(r"\(8 rho\^2 eps = (\S+) >= 1", str(info.value))
        assert bound and float(bound[1]) >= 1

    # Each place R is made, at ten draws of the probe: potrf fails on some,
    # the rule rejects the others, and all name their stage in one form.
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("stage, n, d", [("align_base", 6, 4), ("update_R", 6, 8),
                                             ("update_R", 12, 8)],
                             ids=["align_base", "update_R_qr", "update_R_gram"])
    def test_lost_gamma_has_one_form_wherever_r_is_made(self, stage, n, d, seed):
        X = lost_gamma_rows(n, d, seed)
        with pytest.raises(ValueError, match=rf"^analytic\.{stage}: the Gram after a session "
                           rf"of n={n} rows at d={d} is numerically singular in float64 "
                           r"\(.*\): gamma is lost to rounding$"):
            if stage == "align_base":
                align_base(X, np.ones((n, 1)), 1e-300)
            else:
                update_R(1e-150 * np.eye(d), X)

    def test_align_base_checks_its_factor(self):
        # potrf succeeds on this base Gram, but its factor's diagonal shows the loss.
        X = lost_gamma_rows(6, 4, seed=8)
        with pytest.raises(ValueError, match=r"^analytic\.align_base: the Gram after a session "
                                             r"of n=6 rows at d=4 .*8 rho\^2 eps = 13\.8 >= 1"):
            align_base(X, np.ones((6, 1)), 1e-300)

    @pytest.mark.parametrize("diagonal, shown", [
        ([1.0, np.nan, 1.0], "nan"),
        ([np.nan, np.nan], "nan"),
        ([1.0, 0.0], "inf"),
        ([0.0, 0.0], "nan"),
        ([1.0, np.inf], "inf"),
        # The largest r_22 that fails: 8 rho^2 eps = 1 + 2^-52. Its upper
        # neighbour, 2^-24.5 rounded, passes at 1 - 2^-52.
        ([-1.0, np.nextafter(2.0**-24.5, 0.0)], "1"),
    ], ids=["nan", "all_nan", "zero", "all_zero", "inf", "at_limit"])
    def test_rule_rejects(self, diagonal, shown):
        with pytest.raises(ValueError, match=re.escape(f"at d={len(diagonal)} ") + ".*"
                           + re.escape(f"(8 rho^2 eps = {shown} >= 1")):
            _check_factor(np.diag(diagonal), "stage", 3)

    @pytest.mark.parametrize("diagonal", [[1.0], [-3.0, 3.0], [1.0, 2.0**-24.5], [1e-150, 1e-148]])
    def test_rule_accepts(self, diagonal):
        _check_factor(np.diag(diagonal), "stage", 3)

    def test_healthy_relu_state_is_far_inside_the_rule(self):
        # 2400 relu rows lifted from 64 to d = 512 at gamma = 1e-4 read rho^2 eps = 2.3e-13.
        rng = np.random.default_rng(3)
        H = np.maximum(rng.normal(size=(2400, 64)), 0.0)
        X = np.maximum(H @ rng.normal(size=(64, 512)), 0.0)
        state = align_base(X, one_hot(rng.integers(2, size=2400), (0, 1)), 1e-4)
        diagonal = np.abs(np.diagonal(state.R))
        assert (diagonal.max() / diagonal.min()) ** 2 * np.finfo(np.float64).eps < 1e-10


class TestUpdateWeights:
    def test_zero_features_change_nothing_and_append_zeros(self):
        rng = np.random.default_rng(7)
        base = random_batch(rng, 10, 6, (0, 1))
        state = align_base(base.features, base.targets, 1.0)
        batch = SessionBatch(features=np.zeros((4, 6)), targets=one_hot([2, 2, 3, 3], (2, 3)))
        new = update_weights(state, batch)
        assert new.weights.shape == (6, 4)
        np.testing.assert_allclose(new.weights[:, :2], state.weights, atol=1e-12)
        np.testing.assert_array_equal(new.weights[:, 2:], np.zeros((6, 2)))

    def test_one_session_matches_joint(self):
        rng = np.random.default_rng(8)
        batches = random_stream(rng, d=12, num_sessions=2)
        state = run_recursion(batches, gamma=0.1)
        W_joint = joint_solve(batches, gamma=0.1)
        assert rel_fro(state.weights, W_joint) < 1e-8

    def test_five_sessions_match_joint(self):
        rng = np.random.default_rng(9)
        batches = random_stream(rng, d=16, num_sessions=5)
        state = run_recursion(batches, gamma=0.05)
        W_joint = joint_solve(batches, gamma=0.05)
        assert rel_fro(state.weights, W_joint) < 1e-8

    def test_wrong_width_batch_names_both_widths(self):
        rng = np.random.default_rng(10)
        base = random_batch(rng, 8, 4, (0, 1))
        state = align_base(base.features, base.targets, 1.0)
        with pytest.raises(ValueError, match="feature dim 5 != R dim 4"):
            update_weights(state, random_batch(rng, 6, 5, (2,)))

    def test_zero_diagonal_factor_rejected(self):
        # R = 0 factors no Gram. Rows e0 and e1 (n = 2 < d = 4, the QR path)
        # leave the new factor's diagonal at (-1, -1, 0, 0), which update_R rejects.
        state = AnalyticState(weights=np.zeros((4, 1)), R=np.zeros((4, 4)))
        batch = SessionBatch(features=np.eye(4)[:2], targets=np.ones((2, 1)))
        lost = r"^analytic\.update_R: .* n=2 rows at d=4 .*\(8 rho\^2 eps = inf >= 1"
        with pytest.raises(ValueError, match=lost):
            update_R(state.R, batch.features)
        with pytest.raises(ValueError, match=lost):
            update_weights(state, batch)

    def test_r_exactly_upper_triangular_along_stream(self):
        # Sessions with fewer and with as many rows as d = 300 alternate.
        rng = np.random.default_rng(19)
        batches = [random_batch(rng, rows, 300, (2 * s, 2 * s + 1))
                   for s, rows in enumerate((50, 40, 300, 40, 300, 40))]
        state = align_base(batches[0].features, batches[0].targets, 0.1)
        assert not np.tril(state.R, -1).any()
        for batch in batches[1:]:
            state = update_weights(state, batch)
            assert not np.tril(state.R, -1).any()

    def test_r_consistency_against_accumulator(self):
        rng = np.random.default_rng(11)
        batches = random_stream(rng, d=10, num_sessions=6)
        gamma = 0.3
        state = align_base(batches[0].features, batches[0].targets, gamma)
        gram = batches[0].features.T @ batches[0].features + gamma * np.eye(10)
        assert rel_fro(state.R.T @ state.R, gram) < 1e-12
        for batch in batches[1:]:
            state = update_weights(state, batch)
            gram += batch.features.T @ batch.features
            assert rel_fro(state.R.T @ state.R, gram) < 1e-12

    def test_session_order_does_not_matter(self):
        rng = np.random.default_rng(12)
        batches = random_stream(rng, d=8, num_sessions=4)
        state_a = run_recursion(batches, gamma=0.2)
        order = [2, 0, 3, 1]
        state_b = run_recursion([batches[i] for i in order], gamma=0.2)
        # Each session appends its two columns: map state_b's back to state_a's and compare.
        cols = [2 * i + j for i in order for j in range(2)]
        assert state_b.weights.shape == state_a.weights.shape
        for col_b, col_a in enumerate(cols):
            a, b = state_a.weights[:, col_a], state_b.weights[:, col_b]
            assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))

    # These streams are well conditioned enough for a fixed 1e-8 against
    # joint_solve at every gamma down to 1e-6. 300-row sessions exceed
    # d = 256; fewer sessions and seeds keep that case short.
    @pytest.mark.parametrize("gamma, rows, sessions, seeds", [
        *(pytest.param(g, 40, 30, 5, id=str(g)) for g in (1.0, 1e-2, 1e-4, 1e-6)),
        *(pytest.param(g, 300, 10, 2, id=f"{g}-rows300") for g in (1.0, 1e-2, 1e-4, 1e-6)),
    ])
    def test_long_rank_deficient_relu_stream_matches_joint(self, gamma, rows, sessions, seeds):
        for seed in range(seeds):
            batches = relu_stream(seed, [rows] * sessions)
            state = run_recursion(batches, gamma)
            assert rel_fro(state.weights, joint_solve(batches, gamma)) < 1e-8

    # Relu features lifted from h < d/2 to d are badly conditioned (rank 2
    # for h = 1). Session sizes in [2, 2d] put sessions with fewer and with
    # more rows than d in one stream; gamma spans the README's claimed range.
    # The reference W* is the SVD least-squares solution of [X; sqrt(gamma) I]
    # and kappa(G) the squared ratio of that matrix's extreme singular values.
    # A backward-stable solve is off by about kappa * eps; the +16 is the
    # rounding floor every method, joint_solve included, reaches at kappa < 10.
    # The examples are streams the inverse-form recursion failed: 63x and
    # 109x over this bound, and kappa = 3.0e7, where a fixed 1e-8 against
    # joint_solve fails and joint_solve itself is 7e-9 off W*.
    @settings(max_examples=60, deadline=None)
    @given(stream=relu_stream_shapes(), log_gamma=st.floats(-4.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    @example(stream=(82, 31, [60, 73, 78]), log_gamma=-4.0, seed=13)
    @example(stream=(102, 46, [37, 92, 95, 82]), log_gamma=-4.0, seed=81)
    @example(stream=(76, 1, [121, 125, 148]), log_gamma=-4.0, seed=427)
    def test_recursion_matches_joint_over_claimed_range(self, stream, log_gamma, seed):
        d, h, rows = stream
        gamma = 10.0 ** log_gamma
        batches = relu_stream(seed, rows, h=h, d=d)
        state = run_recursion(batches, gamma)
        stacked = np.vstack([*(b.features for b in batches), np.sqrt(gamma) * np.eye(d)])
        targets = np.zeros((len(stacked), state.weights.shape[1]))
        row = col = 0
        for b in batches:
            n, c = b.targets.shape
            targets[row:row + n, col:col + c] = b.targets
            row, col = row + n, col + c
        U, s, Vt = np.linalg.svd(stacked, full_matrices=False)
        W_star = Vt.T @ ((U.T @ targets) / s[:, None])
        kappa = (s[0] / s[-1]) ** 2
        assert rel_fro(state.weights, W_star) <= 8 * (kappa + 16) * np.finfo(float).eps


def ridge_system(pairs, gamma):
    """[X; sqrt(gamma) I] and [Y; 0] for the sessions ``pairs`` of (X, Y), Y block-diagonal."""
    d = pairs[0][0].shape[1]
    stacked = np.vstack([*(X for X, _ in pairs), np.sqrt(gamma) * np.eye(d)])
    targets = scipy.linalg.block_diag(*(Y for _, Y in pairs))
    return stacked, np.vstack([targets, np.zeros((d, targets.shape[1]))])


def svd_reference(pairs, gamma):
    """W* and kappa(G) for the sessions ``pairs`` of (X, Y).

    W* is the SVD least-squares solution of the :func:`ridge_system`;
    kappa(G) is the squared ratio of its matrix's extreme singular values.
    """
    stacked, targets = ridge_system(pairs, gamma)
    U, s, Vt = np.linalg.svd(stacked, full_matrices=False)
    return Vt.T @ ((U.T @ targets) / s[:, None]), (s[0] / s[-1]) ** 2


def qr_reference(pairs, gamma):
    """:func:`svd_reference`'s W* and kappa(G) from one Householder QR of the ridge system.

    The QR of [A, T] gives R and Q^T T at once, so W* is one triangular solve,
    and R has A's singular values. At the two config shapes of
    ``test_config_shapes_within_bound`` (gamma = 1e-4, seeds 0 and 1) this W*
    was within 3e-4 of the bound of the SVD's, in half its time.
    """
    stacked, targets = ridge_system(pairs, gamma)
    d = stacked.shape[1]
    r = np.linalg.qr(np.hstack([stacked, targets]), mode="r")
    s = scipy.linalg.svdvals(r[:d, :d])
    return scipy.linalg.solve_triangular(r[:d, :d], r[:d, d:]), (s[0] / s[-1]) ** 2


STREAM40_CFG = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "stream40.cfg"


@pytest.fixture(scope="module")
def stream40_sessions():
    """The (X, Y) of every session of the stream40 benchmark config at seed 3, recorded once."""
    cfg = {**load_config(STREAM40_CFG), "seed": 3}
    with pytest.MonkeyPatch.context() as mp:
        _, pairs = run_recording_batches(mp, build_experiment(cfg))
    return pairs


class TestExactnessAtScale:
    """The README's bound 8 (kappa(G) + 16) eps against W* at the sizes the workloads run."""

    @pytest.mark.parametrize("gamma", [1e-4, 1.0, 1e2])
    def test_stream40_sessions_within_bound(self, stream40_sessions, gamma):
        pairs = stream40_sessions
        assert len(pairs) == 40
        assert {X.shape[1] for X, _ in pairs} == {512}
        assert sum(len(X) for X, _ in pairs) == 2400
        W_star, kappa = svd_reference(pairs, gamma)
        assert rel_fro(run_recursion(pairs, gamma).weights, W_star) <= \
            8 * (kappa + 16) * np.finfo(float).eps

    # One-class sessions of relu rows lifted from h = 16 to d = 64: a
    # backward-stable update's error tracks kappa of the final Gram, not S.
    # Sessions of 12 rows take update_R's tpqrt path, sessions of 80 its Gram path.
    @pytest.mark.parametrize("gamma", [1e-4, 1.0, 1e2])
    @pytest.mark.parametrize("sessions, rows", [
        *(pytest.param(s, 12, id=f"{s}") for s in (10, 50, 200)),
        *(pytest.param(s, 80, id=f"{s}-rows80") for s in (10, 50, 200)),
    ])
    def test_session_count_sweep_within_bound(self, sessions, rows, gamma):
        batches = relu_stream(sessions, [rows] * sessions, h=16, d=64, classes_per_session=1)
        pairs = [(b.features, b.targets) for b in batches]
        W_star, kappa = svd_reference(pairs, gamma)
        assert rel_fro(run_recursion(batches, gamma).weights, W_star) <= \
            8 * (kappa + 16) * np.finfo(float).eps

    # The widths the configs absorb at, at the hardest gamma, one-class sessions
    # of relu rows: configs/cora.cfg (h = 256 -> d = 2048, a 929-row base, then
    # 3 sessions of 232 rows, the tpqrt path) and big_sessions (h = 64 -> d = 1024,
    # a 6000-row base, then 4 sessions of 1500, the Gram path). ``grams`` lists
    # the rows of each split_gram call: the base's, then R's and the session's
    # for each Gram-path session.
    @pytest.mark.parametrize("h, d, base, rows, sessions, grams", [
        pytest.param(256, 2048, 929, 232, 3, [929], id="cora-qr_path"),
        pytest.param(64, 1024, 6000, 1500, 4, [6000] + [1024, 1500] * 4,
                     id="big_sessions-gram_path"),
    ])
    def test_config_shapes_within_bound(self, monkeypatch, h, d, base, rows, sessions, grams):
        gamma = 1e-4
        batches = relu_stream(0, [base] + [rows] * sessions, h=h, d=d, classes_per_session=1)
        calls = []
        split_gram = threads.split_gram
        monkeypatch.setattr(threads, "split_gram",
                            lambda X: calls.append(X.shape[0]) or split_gram(X))
        weights = run_recursion(batches, gamma).weights
        assert calls == grams
        W_star, kappa = qr_reference([(b.features, b.targets) for b in batches], gamma)
        assert rel_fro(weights, W_star) <= 8 * (kappa + 16) * np.finfo(float).eps


class TestJointSolve:
    def test_single_batch_equals_align_base(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, 12, 5, (0, 1, 2))
        state = align_base(batch.features, batch.targets, 0.7)
        W = joint_solve([batch], gamma=0.7)
        np.testing.assert_allclose(W, state.weights, atol=1e-10)

    def test_duplicated_batch_doubles_accumulators(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(9, 4))
        Y = one_hot(rng.integers(2, size=9), (0, 1))
        W_dup = joint_solve([(X, Y), (X, Y)], gamma=0.5)
        doubled = np.linalg.inv(2 * X.T @ X + 0.5 * np.eye(4)) @ (X.T @ Y)
        np.testing.assert_allclose(W_dup[:, :2], doubled, atol=1e-10)
        np.testing.assert_allclose(W_dup[:, 2:], doubled, atol=1e-10)
        W_single = joint_solve([(X, Y)], gamma=0.5)
        assert rel_fro(W_dup[:, :2], W_single) > 1e-3  # genuinely different

    def test_orthogonal_feature_blocks_decouple(self):
        rng = np.random.default_rng(15)
        d = 8
        X1 = np.zeros((10, d))
        X1[:, :4] = rng.normal(size=(10, 4))
        X2 = np.zeros((12, d))
        X2[:, 4:] = rng.normal(size=(12, 4))
        Y1 = one_hot(rng.integers(2, size=10), (0, 1))
        Y2 = one_hot(rng.integers(2, size=12) + 2, (2, 3))
        gamma = 0.4
        W = joint_solve([(X1, Y1), (X2, Y2)], gamma)
        W1_alone = np.linalg.inv(X1[:, :4].T @ X1[:, :4] + gamma * np.eye(4)) @ (
            X1[:, :4].T @ Y1
        )
        W2_alone = np.linalg.inv(X2[:, 4:].T @ X2[:, 4:] + gamma * np.eye(4)) @ (
            X2[:, 4:].T @ Y2
        )
        np.testing.assert_allclose(W[:4, :2], W1_alone, atol=1e-9)
        np.testing.assert_allclose(W[4:, 2:], W2_alone, atol=1e-9)
        np.testing.assert_allclose(W[4:, :2], 0.0, atol=1e-9)
        np.testing.assert_allclose(W[:4, 2:], 0.0, atol=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            joint_solve([], gamma=1.0)

    def test_sessions_of_different_widths_rejected(self):
        with pytest.raises(ValueError, match="^all sessions must share the feature dimension$"):
            joint_solve([(np.eye(3), np.eye(3)), (np.eye(2), np.eye(2))], gamma=1.0)

    # Unchecked, 1-D targets would solve to a 1-D W, and rows that do not match
    # the features' would fail inside numpy's matmul with a message naming no field.
    @pytest.mark.parametrize("targets", [np.ones(3), np.ones((4, 1))],
                             ids=["one_dimensional", "row_mismatch"])
    def test_targets_must_be_2d_with_the_features_rows(self, targets):
        message = (f"features and targets must be 2-D and share their row count: "
                   f"features shape (3, 2), targets shape {targets.shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            joint_solve([(np.ones((3, 2)), targets)], gamma=1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        batch = (np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match=re.escape(
                f"gamma must be finite and positive (got {gamma!r})")):
            joint_solve([batch], gamma)

    @pytest.mark.parametrize("as_batch", [True, False], ids=["session_batch", "pair"])
    def test_non_finite_features_rejected(self, as_batch):
        X = np.ones((2, 3))
        X[1, 0] = np.nan
        batch = SessionBatch(X, np.eye(2)) if as_batch else (X, np.eye(2))
        with pytest.raises(ValueError, match="^features contain non-finite values$"):
            joint_solve([batch], gamma=1.0)


class TestPredict:
    def make_state(self, weights):
        return AnalyticState(weights=weights, R=np.eye(weights.shape[0]))

    def test_one_hot_weights_recover_class(self):
        state = self.make_state(np.eye(3) * 2.0)
        X = np.eye(3)[[2, 0, 1, 2]]
        np.testing.assert_array_equal(predict(X, state), [2, 0, 1, 2])

    def test_zero_row_breaks_tie_to_lowest_class_id(self):
        state = self.make_state(np.ones((3, 3)))
        preds = predict(np.zeros((2, 3)), state)
        np.testing.assert_array_equal(preds, [0, 0])

    def test_nan_feature_row_rejected(self):
        state = self.make_state(np.eye(3))
        X = np.eye(3)
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            predict(X, state)

    def test_non_finite_weights_rejected(self):
        W = np.eye(3)
        W[2, 2] = np.inf
        state = self.make_state(W)
        with pytest.raises(ValueError, match="non-finite"):
            predict(np.ones((1, 3)), state)

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3), (2, 4), (0,)])
    def test_input_not_n_by_d_names_its_shape(self, shape):
        state = self.make_state(np.eye(3))
        message = f"X must be (n, d) with d = 3: X shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            predict(np.ones(shape), state)

    @settings(max_examples=300, deadline=None)
    @given(case=tie_prone_cases())
    @example(case=(np.zeros((3, 2)), np.ones((2, 3))))
    @example(case=(np.zeros((0, 2)), np.ones((2, 3))))
    # Scores [-0.0, +0.0]: a tie, which goes to class 0.
    @example(case=(np.array([[1.0, -1.0]]), np.array([[-0.0, 0.0], [0.0, -0.0]])))
    def test_argmax_in_id_order_matches_tie_oracle(self, case):
        X, W = case
        state = self.make_state(W)
        preds = predict(X, state)
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, oracle_predict(X, state))

    @settings(max_examples=200, deadline=None)
    @given(case=tie_prone_cases(min_rows=1), in_weights=st.booleans(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 2**16))
    def test_non_finite_input_still_rejected(self, case, in_weights, bad, where):
        X, W = case
        target = W if in_weights else X
        target.flat[where % target.size] = bad
        state = self.make_state(W)
        # inf * 0 sets the invalid flag inside the GEMM; the check must still fire.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            predict(X, state)

    @settings(max_examples=200, deadline=None)
    @given(case=tie_prone_cases(min_rows=1), data=st.data())
    def test_evaluate_task_is_the_mean_of_hits(self, case, data):
        X, W = case
        state = self.make_state(W)
        # Class id W.shape[1] has no column, so a row labelled with it always misses.
        labels = np.array(data.draw(st.lists(st.integers(0, W.shape[1]),
                                             min_size=len(X), max_size=len(X))))
        acc = evaluate_task(state, X, labels)
        expected = float((oracle_predict(X, state) == labels).mean())
        assert type(acc) is float
        assert acc.hex() == expected.hex()

    def test_predictions_identical_for_recursive_and_joint_weights(self):
        rng = np.random.default_rng(16)
        batches = random_stream(rng, d=10, num_sessions=4)
        state = run_recursion(batches, gamma=0.2)
        W_joint = joint_solve(batches, gamma=0.2)
        joint_state = self.make_state(W_joint)
        X = rng.normal(size=(50, 10))
        np.testing.assert_array_equal(predict(X, state), predict(X, joint_state))


class TestStateStructure:
    def test_memory_footprint_is_two_matrices(self):
        rng = np.random.default_rng(17)
        batches = random_stream(rng, d=6, num_sessions=3)
        state = run_recursion(batches, gamma=1.0)
        array_fields = {
            f.name: getattr(state, f.name)
            for f in dataclasses.fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)
        }
        assert set(array_fields) == {"weights", "R"}
        d = state.feature_dim
        assert array_fields["R"].shape == (d, d)
        assert not np.tril(array_fields["R"], -1).any()
        assert array_fields["weights"].shape == (d, 6)  # 3 sessions of 2 classes

    def test_fields_are_the_arrays_alone(self):
        # Column j of the weights is class id j: no field names the classes.
        assert [f.name for f in dataclasses.fields(AnalyticState)] == ["weights", "R"]
        assert [f.name for f in dataclasses.fields(SessionBatch)] == ["features", "targets"]

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError, match="R shape"):
            AnalyticState(weights=np.ones((2, 1)), R=np.eye(3))

    @pytest.mark.parametrize("shape", [(3,), (), (3, 2, 1)])
    def test_weights_not_a_matrix_name_their_shape(self, shape):
        message = f"weights must be a (d, C) matrix: weights shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AnalyticState(weights=np.ones(shape), R=np.eye(3))

    def test_weights_without_a_class_column_rejected(self):
        # Such a state has no class to predict: argmax over no scores.
        with pytest.raises(ValueError, match=re.escape(
                "weights need at least one class column: weights shape (8, 0)")):
            AnalyticState(weights=np.zeros((8, 0)), R=np.eye(8))

    # An empty session has no target column either, so the column rule alone passes it.
    @pytest.mark.parametrize("entry", [
        lambda X, Y: align_base(X, Y, 1.0),
        lambda X, Y: SessionBatch(X, Y),
        lambda X, Y: joint_solve([(X, Y)], 1.0),
        lambda X, Y: joint_solve([(np.eye(8), np.eye(8)), (X, Y)], 1.0),
    ], ids=["align_base", "SessionBatch", "joint_solve", "joint_solve_later_session"])
    def test_empty_session_rejected(self, entry):
        with pytest.raises(ValueError, match=re.escape(
                "a session needs at least one row: features shape (0, 8)")):
            entry(np.zeros((0, 8)), np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_features_must_be_finite(self, bad):
        # SessionBatch leaves the check to the fit: update_R rejects the batch.
        state = align_base(np.eye(3), np.eye(3), gamma=1.0)
        X = np.ones((2, 3))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="^features contain non-finite values$"):
            update_weights(state, SessionBatch(X, np.eye(2)))

    def test_batch_class_without_rows_rejected(self):
        # Target column 1 is empty: its class would get an all-zero weight column.
        with pytest.raises(ValueError, match="target column 1 has no training rows"):
            SessionBatch(features=np.ones((2, 3)),
                         targets=np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_batch_targets_must_be_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            SessionBatch(features=np.ones((2, 3)),
                         targets=np.array([[1.0, 1.0], [0.0, 1.0]]))
