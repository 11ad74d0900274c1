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
reaches d. :mod:`acgl.threads` lists which of these products run partly
on the helper thread, under its one size rule. Each factor
is checked where it is made: a session in which float64 loses gamma to
rounding raises one ValueError form, naming ``analytic.align_base`` or
``analytic.update_R``.
Column j of W scores class id j, so sessions bring their classes in
ascending id order and :func:`predict` returns the argmax column. Every
session's weights, the base's included, come from one weight step: it
corrects the existing columns and appends one column per new class,

    W_new = [W_prev - G^{-1} X^T X W_prev,  G^{-1} X^T Y]

with both products taken by one solve against the new R. The base is the
step with no earlier columns, so its W solves G W = X_0^T Y_0. This
reproduces the one-shot joint solution within the bound 8 (kappa(G) + 16) eps;
README.md's "Exactness" section gives the range over which it is measured.
:func:`joint_solve` is the independent oracle for that equivalence. G^{-1} is
:attr:`AnalyticState.inv_gram`, never formed by the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import threads
from .graph import FieldError, frozen


@dataclass(frozen=True)
class AnalyticState:
    """Everything retained between sessions: W and R.

    ``weights`` has one column per seen class, at least one; column j is class id j.
    ``R`` is the upper-triangular factor of the regularized Gram,
    R^T R = sum_i X_i^T X_i + gamma I, with gamma already folded in, so
    gamma itself is not kept. R's strictly lower triangle must be zero:
    :func:`update_R`'s QR path carries it into the new factor while its
    Gram path reads R as full, and nothing checks it (a check costs O(d^2)
    per state). Both float64 arrays are held by
    :func:`acgl.graph.frozen`'s rule: ``weights`` C-contiguous, ``R`` in any
    layout, so the Fortran-ordered factor LAPACK returns is kept, not copied.
    The state's footprint is one (d, d) matrix plus one (d, C) matrix, fixed
    in d regardless of how many samples have been absorbed.
    """

    weights: np.ndarray              # (d, C_seen)
    R: np.ndarray                    # (d, d), upper triangular

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be a (d, C) matrix: weights shape {weights.shape}")
        if weights.shape[1] == 0:
            raise ValueError(f"weights need at least one class column: weights shape "
                             f"{weights.shape}")
        d = weights.shape[0]
        if R.shape != (d, d):
            raise ValueError(f"R shape {R.shape} incompatible with weights {weights.shape}")
        object.__setattr__(self, "weights", frozen(weights))
        object.__setattr__(self, "R", frozen(R, order="K"))

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

    Each target column is one new class, in ascending class-id order. The
    session and each column need at least one row: a class with no training
    row would get an all-zero weight column and could never be predicted.
    Both arrays are held as C-contiguous float64 by :func:`acgl.graph.frozen`'s rule.
    """

    features: np.ndarray        # (N, d)
    targets: np.ndarray         # (N, C_new), one-hot rows

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        Y = np.asarray(self.targets, dtype=np.float64)
        _check_targets(X, Y)
        object.__setattr__(self, "features", frozen(X))
        object.__setattr__(self, "targets", frozen(Y))


def _check_targets(X: np.ndarray, Y: np.ndarray) -> None:
    """Raise ValueError unless ``Y`` is 2-D, one one-hot row per row of the 2-D ``X``,
    ``X`` has a row, and every column of ``Y`` has a row."""
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"features and targets must be 2-D and share their row count: "
                         f"features shape {X.shape}, targets shape {Y.shape}")
    if X.shape[0] == 0:
        raise ValueError(f"a session needs at least one row: features shape {X.shape}")
    if not np.all(np.isin(Y, (0.0, 1.0))) or not np.all(Y.sum(axis=1) == 1.0):
        raise ValueError("every target row must be one-hot")
    empty = np.flatnonzero(Y.sum(axis=0) == 0)
    if empty.size:
        raise ValueError(f"target column {empty[0]} has no training rows")


def check_gamma(gamma: float) -> None:
    """Raise the :class:`FieldError` of ``gamma`` unless it is finite and positive."""
    if not 0 < gamma < np.inf:  # NaN fails too
        raise FieldError("gamma", "must be finite and positive", gamma)


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
    recursion's state, then takes :func:`update_weights`' weight step with
    no earlier columns, so W solves G W = X^T Y and Y's column j becomes
    class id j's weight column. A gamma that is not finite and
    positive raises ValueError, and so do targets that break
    :class:`SessionBatch`'s rule, non-finite features and a Gram in which
    gamma is lost to rounding (:func:`_factor`). The inputs are not written.
    """
    check_gamma(gamma)
    X0 = np.asarray(X0, dtype=np.float64)
    Y0 = np.asarray(Y0, dtype=np.float64)
    _check_targets(X0, Y0)
    if not np.isfinite(X0).all():
        raise ValueError("features contain non-finite values")
    gram = threads.split_gram(X0)
    gram[np.diag_indices_from(gram)] += gamma
    R = _factor(gram, "analytic.align_base", X0.shape[0])
    return _solve_weights(R, X0, Y0, np.empty((X0.shape[1], 0)))


def update_R(R_prev: np.ndarray, Xn: np.ndarray) -> np.ndarray:
    """Absorb a session into the Gram's triangular factor.

    Returns a fresh upper-triangular R in Fortran order with
    R^T R = R_prev^T R_prev + Xn^T Xn; neither input is written. The path
    follows the session's row count n against d:

    - n < d: the triangle of the QR factorization of [R_prev; Xn] by
      LAPACK tpqrt's panel loop (:func:`threads.split_tpqrt`), at about
      2nd^2 flops. Its diagonal may carry either sign.
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

    R absorbs the new session first (:func:`update_R`); then, with G the
    Gram R^T R, the weight step, the same one that ends :func:`align_base`,
    corrects the existing class columns by -G^{-1} X^T X W_prev and appends
    the new classes' columns G^{-1} X^T Y, both from one solve against R, so
    the batch's target columns become the next class ids. :func:`update_R`
    rejects non-finite features and a session in which gamma is lost to
    rounding.
    """
    X = batch.features
    return _solve_weights(update_R(state.R, X), X, batch.targets, state.weights)


def _solve_weights(R: np.ndarray, X: np.ndarray, Y: np.ndarray, W: np.ndarray) -> AnalyticState:
    """The weight step: the state of factor R and weights [W, 0] + G^{-1} X^T [-X W, Y].

    G = R^T R already holds the session X. The right-hand side X^T [-X W, Y]
    is solved against R by one cho_solve; W is added to the first columns.
    With W of no columns this is the ridge fit G^{-1} X^T Y.
    """
    rhs = threads.split_matmul(X.T, np.hstack([-threads.split_matmul(X, W), Y]))
    weights = scipy.linalg.cho_solve((R, False), rhs, check_finite=False)
    weights[:, :W.shape[1]] += W
    return AnalyticState(weights=weights, R=R)


def _as_xy(batch) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, SessionBatch):
        return batch.features, batch.targets
    X, Y = batch
    return np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)


def joint_solve(batches, gamma: float) -> np.ndarray:
    """One-shot ridge solution over all sessions at once (the oracle).

    Accumulates sum X_i^T X_i + gamma I and stacks the per-session blocks
    X_i^T Y_i as label columns, then solves once. Column order is session
    order, as in the recursion. gamma must be finite and positive, the
    features finite, and each session's targets must keep
    :class:`SessionBatch`'s rule.
    """
    check_gamma(gamma)
    batches = list(batches)
    if not batches:
        raise ValueError("at least one session required")
    d = _as_xy(batches[0])[0].shape[1]
    gram = gamma * np.eye(d)
    blocks = []
    for batch in batches:
        X, Y = _as_xy(batch)
        _check_targets(X, Y)
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

    One product (:func:`threads.split_matmul`), then one argmax over the
    score columns; column j is class id j.
    argmax returns the first maximal column, so a tie (an all-zero row, or
    +0.0 against -0.0) goes to the smallest tied class id. Non-finite
    scores (from NaN or inf features or weights) raise ValueError rather
    than yielding an arbitrary id, and so does an ``X`` of any shape but
    (n, d).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != state.feature_dim:
        raise ValueError(f"X must be (n, d) with d = {state.feature_dim}: X shape {X.shape}")
    scores = threads.split_matmul(X, state.weights)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classifier scores; features or weights contain NaN or inf")
    return scores.argmax(axis=1).astype(np.int64, copy=False)
