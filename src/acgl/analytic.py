"""Closed-form ridge classifier with exact recursive class-incremental updates.

The classifier weight W solves the multi-output ridge problem over every
session seen so far. Rather than keeping past features, the engine stores
only R, the upper-triangular Cholesky factor of the regularized Gram

    R^T R = G = sum_i X_i^T X_i + gamma * I

and absorbs each session into it by one of two exact paths, chosen from
the session's row count n against d. A session of fewer than d rows is
one QR step of [R; X] (LAPACK tpqrt), the square-root form of recursive
least squares. A session of at least d rows forms the upper triangle of
R^T R + X^T X (two BLAS syrk calls) and factors it again (LAPACK potrf),
which is the faster path once n reaches d. Each factor is checked where it
is made: a session in which float64 loses gamma to rounding raises one
ValueError form, naming ``analytic.align_base`` or ``analytic.update_R``.
The weight update corrects existing class columns and appends one column
per new class,

    W_new = [W_prev - G^{-1} X^T X W_prev,  G^{-1} X^T Y]

with both products taken by one solve against the new R. This reproduces
the one-shot joint solution up to float error, within the README's bound
8 (kappa(G) + 16) eps, as measured for gamma from 1e-4 to 1e2 up to 200
sessions at d = 64 and at 40 sessions of d = 512. :func:`joint_solve` is the
independent oracle for that equivalence. The paper's inverse autocorrelation matrix G^{-1} is
available as :attr:`AnalyticState.inv_gram`; the recursion never forms it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

__all__ = [
    "AnalyticState",
    "SessionBatch",
    "align_base",
    "update_R",
    "update_weights",
    "joint_solve",
    "predict",
]

# Block size of the tpqrt reflector panels.
_QR_BLOCK = 32


@dataclass(frozen=True)
class AnalyticState:
    """Everything retained between sessions: W, R, and class order.

    ``weights`` has one column per seen class, in the order the classes
    were first seen, and ``seen_classes`` names those columns.
    ``R`` is the upper-triangular factor of the regularized Gram,
    R^T R = sum_i X_i^T X_i + gamma I, with gamma already folded in, so
    gamma itself is not kept; it stays in the Fortran order LAPACK returns.
    Both arrays are read-only. The state's footprint is one (d, d) matrix
    plus one (d, C) matrix, fixed in d regardless of how many samples have
    been absorbed. :func:`predict` reads the columns in ascending class-id
    order through a permutation derived once per state, not stored.
    """

    weights: np.ndarray              # (d, C_seen)
    R: np.ndarray                    # (d, d), upper triangular
    seen_classes: tuple[int, ...]

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        d, c = weights.shape
        if R.shape != (d, d):
            raise ValueError(f"R shape {R.shape} incompatible with weights {weights.shape}")
        if c != len(self.seen_classes):
            raise ValueError("one weight column per seen class required")
        if len(set(self.seen_classes)) != c:
            raise ValueError("seen_classes must be unique")
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

    @cached_property
    def _id_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The weight-column permutation that sorts ``seen_classes``, and the sorted ids."""
        ids = np.asarray(self.seen_classes, dtype=np.int64)
        order = np.argsort(ids)
        return order, ids[order]


@dataclass(frozen=True)
class SessionBatch:
    """One session's expanded training features and one-hot targets.

    Every class id needs at least one row: a class with no training row
    would get an all-zero weight column and could never be predicted.
    """

    features: np.ndarray        # (N, d)
    targets: np.ndarray         # (N, C_new), one-hot rows
    class_ids: tuple[int, ...]

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=np.float64)
        Y = np.ascontiguousarray(self.targets, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError("features and targets must share their row count")
        if Y.shape[1] != len(self.class_ids):
            raise ValueError("one target column per class id required")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("class_ids must be unique")
        if not np.all(np.isin(Y, (0.0, 1.0))) or not np.all(Y.sum(axis=1) == 1.0):
            raise ValueError("every target row must be one-hot")
        empty = [c for c, count in zip(self.class_ids, Y.sum(axis=0)) if count == 0]
        if empty:
            raise ValueError(f"class {empty[0]} has no training rows")
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite values")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", Y)


def one_hot(labels: np.ndarray, class_ids) -> np.ndarray:
    """One-hot float64 rows over ``class_ids`` (column order follows class_ids).

    Raises ValueError naming the first label that is not one of ``class_ids``,
    and when ``class_ids`` repeats an id.
    """
    ids = np.array([int(c) for c in class_ids], dtype=np.int64)
    if np.unique(ids).size != ids.size:
        raise ValueError("class_ids must be unique")
    labels = np.asarray(labels).reshape(-1)
    hits = labels[:, None] == ids
    found = hits.any(axis=1)
    if not found.all():
        raise ValueError(f"label {labels[~found][0]!s} is not one of the class ids "
                         f"{ids.tolist()}")
    return hits.astype(np.float64)


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


def align_base(X0: np.ndarray, Y0: np.ndarray, gamma: float,
               class_ids=None) -> AnalyticState:
    """Closed-form ridge fit of the base session; seeds W and R.

    Factors G = X^T X + gamma I by Cholesky into R (R^T R = G), the
    recursion's state, and solves G W = X^T Y against it. ``class_ids``
    defaults to 0..C0-1 when the base classes are not explicitly named.
    Non-finite features raise ValueError, and so does a Gram in which
    gamma is lost to rounding (:func:`_factor`).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    X0 = np.asarray(X0, dtype=np.float64)
    Y0 = np.asarray(Y0, dtype=np.float64)
    if not np.isfinite(X0).all():
        raise ValueError("features contain non-finite values")
    if class_ids is None:
        class_ids = tuple(range(Y0.shape[1]))
    # The Gram is symmetric, so its transpose is the same matrix in the
    # Fortran order potrf factors in place.
    gram = (X0.T @ X0).T
    gram[np.diag_indices_from(gram)] += gamma
    R = _factor(gram, "analytic.align_base", X0.shape[0])
    return AnalyticState(
        weights=scipy.linalg.cho_solve((R, False), X0.T @ Y0, check_finite=False),
        R=R,
        seen_classes=tuple(int(c) for c in class_ids),
    )


def update_R(R_prev: np.ndarray, Xn: np.ndarray) -> np.ndarray:
    """Absorb a session into the Gram's triangular factor.

    Returns a fresh upper-triangular R in Fortran order with
    R^T R = R_prev^T R_prev + Xn^T Xn; neither input is written. The path
    follows the session's row count n against d:

    - n < d: the triangle of the QR factorization of [R_prev; Xn], one
      LAPACK tpqrt call at about 2nd^2 flops. Its diagonal may carry
      either sign.
    - n >= d: the upper triangle of R_prev^T R_prev + Xn^T Xn by two BLAS
      syrk calls, then its Cholesky factor by potrf, at about
      nd^2 + 4d^3/3 flops. Its diagonal is positive.

    Raises ValueError unless R_prev is a nonempty square (d, d) matrix and
    Xn a 2-D array of d columns, and when the session's entries are so
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
    n = Xn.shape[0]
    if n < d:
        R_new, _, _, info = scipy.linalg.lapack.dtpqrt(0, min(_QR_BLOCK, d), R_prev, Xn)
        if info != 0:
            raise ValueError(f"LAPACK tpqrt info {info}")
        _check_factor(R_new, "analytic.update_R", n)
        return R_new
    # Xn.T of a C-ordered Xn is a Fortran view, so syrk reads the batch uncopied.
    gram = scipy.linalg.blas.dsyrk(1.0, R_prev, trans=1, lower=0)
    gram = scipy.linalg.blas.dsyrk(1.0, Xn.T, trans=0, beta=1.0, c=gram, lower=0,
                                   overwrite_c=1)
    return _factor(gram, "analytic.update_R", n)


def update_weights(state: AnalyticState, batch: SessionBatch) -> AnalyticState:
    """One recursive class-incremental step; returns the successor state.

    R absorbs the new session first; then, with G the Gram R^T R, existing
    class columns are corrected by -G^{-1} X^T X W_prev and the new classes'
    columns G^{-1} X^T Y are appended, both from one solve against R.
    Revisiting an already-seen class is rejected, and :func:`update_R`
    rejects a session in which gamma is lost to rounding.
    """
    overlap = set(batch.class_ids) & set(state.seen_classes)
    if overlap:
        raise ValueError(f"classes revisited across sessions: {sorted(overlap)}")
    X, Y = batch.features, batch.targets
    R_new = update_R(state.R, X)
    W = state.weights
    weights = scipy.linalg.cho_solve((R_new, False), X.T @ np.hstack([-(X @ W), Y]),
                                     check_finite=False)
    weights[:, :W.shape[1]] += W
    return AnalyticState(
        weights=weights,
        R=R_new,
        seen_classes=state.seen_classes + tuple(int(c) for c in batch.class_ids),
    )


def _as_xy(batch) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, SessionBatch):
        return batch.features, batch.targets
    X, Y = batch
    return np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)


def joint_solve(batches, gamma: float) -> np.ndarray:
    """One-shot ridge solution over all sessions at once (the oracle).

    Accumulates sum X_i^T X_i + gamma I and stacks the per-session blocks
    X_i^T Y_i as label columns, then solves once. Column order is session
    order, matching the recursion's first-seen ordering.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
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
        gram += X.T @ X
        blocks.append(X.T @ Y)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, check_finite=False),
                                  np.hstack(blocks), check_finite=False)


def predict(X: np.ndarray, state: AnalyticState) -> np.ndarray:
    """Class id of the largest linear score X @ W in each row, as int64.

    One GEMM against the weights as stored, then one argmax over the score
    columns taken in ascending class-id order. argmax returns the first
    maximal column, so a tie (an all-zero row, or +0.0 against -0.0) goes to
    the smallest tied class id, whatever order the classes were learned in.
    Non-finite scores (from NaN or inf features or weights) raise
    ValueError rather than yielding an id outside ``seen_classes``, and so
    does an ``X`` of any shape but (n, d).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != state.feature_dim:
        raise ValueError(f"X must be (n, d) with d = {state.feature_dim}: X shape {X.shape}")
    scores = X @ state.weights
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classifier scores; features or weights contain NaN or inf")
    order, ids = state._id_order
    return ids[scores.take(order, axis=1).argmax(axis=1)]
