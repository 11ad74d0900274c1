"""Closed-form ridge classifier with exact recursive class-incremental updates.

The classifier weight W solves the multi-output ridge problem over every
session seen so far. Rather than keeping past features, the engine stores
only R, the upper-triangular Cholesky factor of the regularized Gram

    R^T R = G = sum_i X_i^T X_i + gamma * I

and absorbs each session into it by one of two exact paths, chosen from
the session's row count n against d. A session of fewer than d rows is
one QR step of [R; X] (LAPACK tpqrt), the square-root form of recursive
least squares. A session of at least d rows forms the upper triangle of
R^T R + X^T X and factors it again (LAPACK potrf), the faster path once n
reaches d. Each Gram, X^T X or R^T R, is one :func:`threads.split_gram`,
and each QR step one :func:`threads.split_tpqrt`, part of each on the
helper thread; potrf and cho_solve stay on the calling thread, because
scipy's LAPACK wrappers hold the GIL. Each factor
is checked where it is made: a session in which float64 loses gamma to
rounding raises one ValueError form, naming ``analytic.align_base`` or
``analytic.update_R``.
Column j of W scores class id j, so sessions bring their classes in
ascending id order and :func:`predict` returns the argmax column. The weight
update corrects the existing columns and appends one column per new class,

    W_new = [W_prev - G^{-1} X^T X W_prev,  G^{-1} X^T Y]

with both products taken by one solve against the new R. This reproduces
the one-shot joint solution up to float error, within the README's bound
8 (kappa(G) + 16) eps, as measured for gamma from 1e-4 to 1e2 up to 200
sessions at d = 64, at 40 sessions of d = 512, and at d = 2048 (tpqrt path)
and d = 1024 (Gram path). :func:`joint_solve` is the independent oracle for
that equivalence. G^{-1} is :attr:`AnalyticState.inv_gram`, never formed by the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import threads


@dataclass(frozen=True)
class AnalyticState:
    """Everything retained between sessions: W and R.

    ``weights`` has one column per seen class, column j for class id j.
    ``R`` is the upper-triangular factor of the regularized Gram,
    R^T R = sum_i X_i^T X_i + gamma I, with gamma already folded in, so
    gamma itself is not kept; it stays in the Fortran order LAPACK returns.
    Both arrays are read-only. A caller's float64 array is kept, not copied,
    and so turns read-only too: ``R`` in any layout, ``weights`` when it is
    C-contiguous; any other is copied and the caller's stays writeable. The
    state's footprint is one (d, d) matrix plus one (d, C) matrix, fixed in
    d regardless of how many samples have been absorbed.
    """

    weights: np.ndarray              # (d, C_seen)
    R: np.ndarray                    # (d, d), upper triangular

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        d, _ = weights.shape
        if R.shape != (d, d):
            raise ValueError(f"R shape {R.shape} incompatible with weights {weights.shape}")
        for name, arr in (("weights", weights), ("R", R)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def inv_gram(self) -> np.ndarray:
        """G^{-1} = (R^T R)^{-1}, the paper's inverse autocorrelation matrix, formed on demand."""
        upper, info = scipy.linalg.lapack.dpotri(self.R, lower=0)
        if info != 0:
            raise ValueError(f"matrix numerically singular: LAPACK info {info}")
        return np.triu(upper) + np.triu(upper, 1).T


@dataclass(frozen=True)
class SessionBatch:
    """One session's expanded training features and one-hot targets.

    Each target column is one new class, in ascending class-id order. Every
    column needs at least one row: a class with no training row would get
    an all-zero weight column and could never be predicted. A caller's
    C-contiguous float64 array is kept, not copied, and made read-only, so
    the caller's array turns read-only too; any other is copied and the
    caller's stays writeable.
    """

    features: np.ndarray        # (N, d)
    targets: np.ndarray         # (N, C_new), one-hot rows

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=np.float64)
        Y = np.ascontiguousarray(self.targets, dtype=np.float64)
        _check_targets(X, Y)
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", Y)


def _check_targets(X: np.ndarray, Y: np.ndarray) -> None:
    """Raise ValueError unless ``Y`` is 2-D, one one-hot row per row of the 2-D ``X``,
    and every column of ``Y`` has a row."""
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"features and targets must be 2-D and share their row count: "
                         f"features shape {X.shape}, targets shape {Y.shape}")
    if not np.all(np.isin(Y, (0.0, 1.0))) or not np.all(Y.sum(axis=1) == 1.0):
        raise ValueError("every target row must be one-hot")
    empty = np.flatnonzero(Y.sum(axis=0) == 0)
    if empty.size:
        raise ValueError(f"target column {empty[0]} has no training rows")


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < np.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and positive (got {gamma!r})")


def _singular_gram(stage: str, n: int, d: int, evidence: str) -> ValueError:
    """The one error for a Gram in which float64 has lost gamma."""
    return ValueError(f"{stage}: the Gram after a session of n={n} rows at d={d} is "
                      f"numerically singular in float64 ({evidence}): gamma is lost to rounding")


def _check_factor(R: np.ndarray, stage: str, n: int) -> None:
    """Raise ValueError when the diagonal of the Gram factor R shows gamma lost to rounding.

    With rho = max |r_ii| / min |r_ii| over R's diagonal, kappa_2(R) >= rho
    for triangular R and kappa(G) = kappa_2(R)^2 >= rho^2. So from
    8 rho^2 eps >= 1 on, the README's bound 8 (kappa(G) + 16) eps is above 1
    and no digit of W is guaranteed. A zero, infinite or NaN diagonal entry
    fails as well. rho^2 is only a lower bound on kappa(G), so the rule
    detects a lost gamma whose diagonal shows it; it does not prevent one.
    It costs O(d).
    """
    diagonal = np.abs(np.diagonal(R))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = float(8 * (diagonal.max() / diagonal.min()) ** 2 * np.finfo(np.float64).eps)
    if not bound < 1.0:  # NaN fails too
        raise _singular_gram(stage, n, R.shape[0],
                             f"8 rho^2 eps = {bound:.3g} >= 1 with rho = max|r_ii| / min|r_ii|")


def _factor(gram: np.ndarray, stage: str, n: int) -> np.ndarray:
    """Upper Cholesky factor R (R^T R = gram) by LAPACK potrf, in Fortran order, checked.

    ``gram`` is overwritten when it is Fortran-ordered; the factor's lower
    triangle is zeroed. A gram potrf cannot factor, or a factor that
    :func:`_check_factor` rejects, raises the lost-gamma ValueError naming
    ``stage`` and the session's row count ``n``.
    """
    largest = gram.diagonal().max()
    R, info = scipy.linalg.lapack.dpotrf(gram, lower=0, clean=1, overwrite_a=1)
    if info != 0:
        raise _singular_gram(stage, n, gram.shape[0], f"potrf: not positive definite, "
                             f"diagonal entries up to {largest:.3g}")
    _check_factor(R, stage, n)
    return R


def align_base(X0: np.ndarray, Y0: np.ndarray, gamma: float) -> AnalyticState:
    """Closed-form ridge fit of the base session; seeds W and R.

    Factors G = X^T X + gamma I by Cholesky into R (R^T R = G), the
    recursion's state, and solves G W = X^T Y against it, so Y's column j
    becomes class id j's weight column. A gamma that is not finite and
    positive raises ValueError, and so do targets that break
    :class:`SessionBatch`'s rule, non-finite features and a Gram in which
    gamma is lost to rounding (:func:`_factor`). The inputs are not written.
    """
    _check_gamma(gamma)
    X0 = np.asarray(X0, dtype=np.float64)
    Y0 = np.asarray(Y0, dtype=np.float64)
    _check_targets(X0, Y0)
    if not np.isfinite(X0).all():
        raise ValueError("features contain non-finite values")
    gram = threads.split_gram(X0)
    gram[np.diag_indices_from(gram)] += gamma
    R = _factor(gram, "analytic.align_base", X0.shape[0])
    return AnalyticState(
        weights=scipy.linalg.cho_solve((R, False), X0.T @ Y0, check_finite=False),
        R=R,
    )


def update_R(R_prev: np.ndarray, Xn: np.ndarray) -> np.ndarray:
    """Absorb a session into the Gram's triangular factor.

    Returns a fresh upper-triangular R in Fortran order with
    R^T R = R_prev^T R_prev + Xn^T Xn; neither input is written. The path
    follows the session's row count n against d:

    - n < d: the triangle of the QR factorization of [R_prev; Xn] by
      LAPACK tpqrt's panel loop, its panel updates split between two
      threads (:func:`threads.split_tpqrt`), bit for bit one tpqrt call,
      at about 2nd^2 flops. Its diagonal may carry either sign.
    - n >= d: the upper triangle of R_prev^T R_prev + Xn^T Xn, each term
      one :func:`threads.split_gram`, then its Cholesky factor by potrf, at
      about nd^2 + 4d^3/3 flops. Its diagonal is positive.

    Raises ValueError unless R_prev is a nonempty square (d, d) matrix and
    Xn a finite 2-D array of d columns, and when the session's entries are so
    large that gamma, the only term keeping the Gram away from singular,
    is lost to rounding: potrf fails, or the new factor's diagonal shows it
    (:func:`_check_factor`), on either path.
    """
    R_prev = np.asarray(R_prev, dtype=np.float64)
    Xn = np.asarray(Xn, dtype=np.float64)
    if R_prev.ndim != 2 or R_prev.shape[0] != R_prev.shape[1] or R_prev.size == 0:
        raise ValueError(f"R_prev must be a nonempty square (d, d) matrix, got shape "
                         f"{R_prev.shape}")
    d = R_prev.shape[0]
    if Xn.ndim != 2:
        raise ValueError(f"Xn must be 2-D with d = {d} columns: Xn shape {Xn.shape}")
    if Xn.shape[1] != d:
        raise ValueError(f"feature dim {Xn.shape[1]} != R dim {d}: Xn shape {Xn.shape}, "
                         f"R_prev shape {R_prev.shape}")
    if not np.isfinite(Xn).all():
        raise ValueError("features contain non-finite values")
    n = Xn.shape[0]
    if n < d:
        R_new, info = threads.split_tpqrt(R_prev, Xn)
        if info != 0:
            raise ValueError(f"LAPACK tpqrt info {info}")
        _check_factor(R_new, "analytic.update_R", n)
        return R_new
    gram = threads.split_gram(R_prev)
    np.add(gram, threads.split_gram(Xn), out=gram)
    return _factor(gram, "analytic.update_R", n)


def update_weights(state: AnalyticState, batch: SessionBatch) -> AnalyticState:
    """One recursive class-incremental step; returns the successor state.

    R absorbs the new session first; then, with G the Gram R^T R, existing
    class columns are corrected by -G^{-1} X^T X W_prev and the new classes'
    columns G^{-1} X^T Y are appended, both from one solve against R, so the
    batch's target columns become the next class ids. :func:`update_R`
    rejects non-finite features and a session in which gamma is lost to rounding.
    """
    X, Y = batch.features, batch.targets
    R_new = update_R(state.R, X)
    W = state.weights
    weights = scipy.linalg.cho_solve((R_new, False), X.T @ np.hstack([-(X @ W), Y]),
                                     check_finite=False)
    weights[:, :W.shape[1]] += W
    return AnalyticState(weights=weights, R=R_new)


def _as_xy(batch) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, SessionBatch):
        return batch.features, batch.targets
    X, Y = batch
    return np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)


def joint_solve(batches, gamma: float) -> np.ndarray:
    """One-shot ridge solution over all sessions at once (the oracle).

    Accumulates sum X_i^T X_i + gamma I and stacks the per-session blocks
    X_i^T Y_i as label columns, then solves once. Column order is session
    order, as in the recursion. gamma must be finite and positive, and the
    features finite.
    """
    _check_gamma(gamma)
    batches = list(batches)
    if not batches:
        raise ValueError("at least one session required")
    d = _as_xy(batches[0])[0].shape[1]
    gram = gamma * np.eye(d)
    blocks = []
    for batch in batches:
        X, Y = _as_xy(batch)
        if X.shape[1] != d:
            raise ValueError("all sessions must share the feature dimension")
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite values")
        gram += X.T @ X
        blocks.append(X.T @ Y)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, check_finite=False),
                                  np.hstack(blocks), check_finite=False)


def predict(X: np.ndarray, state: AnalyticState) -> np.ndarray:
    """Class id of the largest linear score X @ W in each row, as int64.

    One GEMM, then one argmax over the score columns; column j is class id
    j. argmax returns the first maximal column, so a tie (an all-zero row,
    or +0.0 against -0.0) goes to the smallest tied class id. Non-finite
    scores (from NaN or inf features or weights) raise ValueError rather
    than yielding an arbitrary id, and so does an ``X`` of any shape but
    (n, d).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != state.feature_dim:
        raise ValueError(f"X must be (n, d) with d = {state.feature_dim}: X shape {X.shape}")
    scores = X @ state.weights
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classifier scores; features or weights contain NaN or inf")
    return scores.argmax(axis=1).astype(np.int64, copy=False)
