"""Closed-form ridge classifier with exact recursive class-incremental updates.

The classifier weight W solves the multi-output ridge problem over every
session seen so far. Rather than keeping past features, the engine stores
only R, the upper-triangular Cholesky factor of the regularized Gram

    R^T R = G = sum_i X_i^T X_i + gamma * I

and absorbs each session into it with one QR step of [R; X] (LAPACK
tpqrt), whatever the session's row count: the square-root form of
recursive least squares. The weight update corrects existing class columns
and appends one column per new class,

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


def _upper_factor(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor R (R^T R = gram) by LAPACK potrf, in Fortran order.

    ``gram`` is overwritten when it is Fortran-ordered; the factor's lower
    triangle is zeroed. Raises ValueError when ``gram`` is not numerically
    positive definite.
    """
    factor, info = scipy.linalg.lapack.dpotrf(gram, lower=0, clean=1, overwrite_a=1)
    if info != 0:
        raise ValueError(f"matrix numerically singular or indefinite: LAPACK info {info}")
    return factor


def align_base(X0: np.ndarray, Y0: np.ndarray, gamma: float,
               class_ids=None) -> AnalyticState:
    """Closed-form ridge fit of the base session; seeds W and R.

    Factors G = X^T X + gamma I by Cholesky into R (R^T R = G), the
    recursion's state, and solves G W = X^T Y against it. ``class_ids``
    defaults to 0..C0-1 when the base classes are not explicitly named.
    Non-finite features raise ValueError, and so does a Gram whose entries
    are so large that gamma is lost to rounding.
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
    largest = gram.diagonal().max()
    try:
        R = _upper_factor(gram)
    except ValueError:
        raise ValueError(
            f"analytic.align_base: the base Gram X0^T X0 + gamma I is not positive definite "
            f"in float64: gamma={gamma:g} is lost to rounding against diagonal entries up "
            f"to {largest:.3g}"
        ) from None
    return AnalyticState(
        weights=scipy.linalg.cho_solve((R, False), X0.T @ Y0, check_finite=False),
        R=R,
        seen_classes=tuple(int(c) for c in class_ids),
    )


def update_R(R_prev: np.ndarray, Xn: np.ndarray) -> np.ndarray:
    """Absorb a session into the Gram's triangular factor.

    Returns the upper-triangular R of the QR factorization of [R_prev; Xn],
    so that R^T R = R_prev^T R_prev + Xn^T Xn, by one LAPACK tpqrt call
    for any row count (none included). Its diagonal may carry either sign.
    """
    R_prev = np.asarray(R_prev, dtype=np.float64)
    Xn = np.asarray(Xn, dtype=np.float64)
    d = R_prev.shape[0]
    if Xn.shape[1] != d:
        raise ValueError(f"feature dim {Xn.shape[1]} != R dim {d}")
    R_new, _, _, info = scipy.linalg.lapack.dtpqrt(0, min(_QR_BLOCK, d), R_prev, Xn)
    if info != 0:
        raise ValueError(f"LAPACK tpqrt info {info}")
    return R_new


def update_weights(state: AnalyticState, batch: SessionBatch) -> AnalyticState:
    """One recursive class-incremental step; returns the successor state.

    R absorbs the new session first; then, with G the Gram R^T R, existing
    class columns are corrected by -G^{-1} X^T X W_prev and the new classes'
    columns G^{-1} X^T Y are appended, both from one solve against R.
    Revisiting an already-seen class is rejected, and so is a new factor
    with a zero or non-finite diagonal entry (a singular or overflowed Gram).
    """
    overlap = set(batch.class_ids) & set(state.seen_classes)
    if overlap:
        raise ValueError(f"classes revisited across sessions: {sorted(overlap)}")
    X, Y = batch.features, batch.targets
    R_new = update_R(state.R, X)
    diagonal = np.diagonal(R_new)
    if not (np.isfinite(diagonal).all() and diagonal.all()):
        raise ValueError("matrix numerically singular: Gram factor has a zero or "
                         "non-finite diagonal entry")
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
    return scipy.linalg.cho_solve((_upper_factor(gram), False), np.hstack(blocks),
                                  check_finite=False)


def predict(X: np.ndarray, state: AnalyticState) -> np.ndarray:
    """Class id of the largest linear score X @ W in each row, as int64.

    One GEMM against the weights as stored, then one argmax over the score
    columns taken in ascending class-id order. argmax returns the first
    maximal column, so a tie (an all-zero row, or +0.0 against -0.0) goes to
    the smallest tied class id, whatever order the classes were learned in.
    Non-finite scores (from NaN or inf features or weights) raise
    ValueError rather than yielding an id outside ``seen_classes``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != state.feature_dim:
        raise ValueError(f"feature dim {X.shape[1]} != state dim {state.feature_dim}")
    scores = X @ state.weights
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classifier scores; features or weights contain NaN or inf")
    order, ids = state._id_order
    return ids[scores.take(order, axis=1).argmax(axis=1)]
