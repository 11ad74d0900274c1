"""Closed-form ridge classifier with exact recursive class-incremental updates.

The classifier weight W solves the multi-output ridge problem over every
session seen so far. Rather than keeping past features, the engine stores
only the regularized inverse Gram matrix

    R = (sum_i X_i^T X_i + gamma * I)^{-1}

and updates it per session with the Woodbury identity, so the inner solve
is only as large as the session's sample count. The weight update corrects
existing class columns and appends one column per new class:

    W_new = [W_prev - R_new X^T X W_prev,  R_new X^T Y]

which reproduces the one-shot joint solution exactly (up to float error),
no matter how many sessions the data arrived in. :func:`joint_solve` is the
independent oracle for that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class AnalyticState:
    """Everything retained between sessions: W, R, and class order.

    ``weights`` has one column per seen class, ordered by first appearance;
    ``inv_gram`` is the regularized inverse autocorrelation matrix R, with
    gamma already folded in, so gamma itself is not kept. The state's
    footprint is one (d, d) matrix plus one (d, C) matrix, fixed in
    d regardless of how many samples have been absorbed.
    """

    weights: np.ndarray              # (d, C_seen)
    inv_gram: np.ndarray             # (d, d), symmetric positive definite
    seen_classes: tuple[int, ...]

    def __post_init__(self):
        d, c = self.weights.shape
        if self.inv_gram.shape != (d, d):
            raise ValueError(
                f"R shape {self.inv_gram.shape} incompatible with weights {self.weights.shape}"
            )
        if c != len(self.seen_classes):
            raise ValueError("one weight column per seen class required")
        if len(set(self.seen_classes)) != c:
            raise ValueError("seen_classes must be unique")
        for name in ("weights", "inv_gram"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]


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
    """One-hot rows over ``class_ids`` (column order follows class_ids)."""
    class_ids = list(class_ids)
    pos = {int(c): j for j, c in enumerate(class_ids)}
    out = np.zeros((len(labels), len(class_ids)), dtype=np.float64)
    for i, y in enumerate(labels):
        out[i, pos[int(y)]] = 1.0
    return out


def _spd_factor(matrix: np.ndarray):
    """Cholesky factor; raises ValueError when the matrix is not SPD."""
    try:
        return scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"matrix numerically singular or indefinite: {exc}") from exc


# Edge of the square tiles the d x d passes walk, so that a tile and its
# mirror image both stay in cache.
_TILE = 128


def _tile_pairs(n: int):
    """(rows, cols) slices of the tiles on and above the diagonal of an n x n matrix."""
    starts = range(0, n, _TILE)
    for i in starts:
        for j in starts[i // _TILE:]:
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _mirror_lower(mat: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of ``mat`` over its upper one, in place and tile by tile."""
    for rows, cols in _tile_pairs(len(mat)):
        if rows == cols:
            tile = mat[rows, rows]
            tile[...] = np.tril(tile) + np.tril(tile, -1).T
        else:
            mat[rows, cols] = mat[cols, rows].T
    return mat


def _spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix from its Cholesky factor (LAPACK potrf + potri).

    Only the lower triangle of ``matrix`` is read. potri returns the lower
    triangle of the inverse, which is mirrored into the upper one, so the
    result is exactly symmetric. Raises ValueError when the matrix is not SPD.
    """
    factor, info = scipy.linalg.lapack.dpotrf(matrix, lower=1)
    if info == 0:
        inverse, info = scipy.linalg.lapack.dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError(f"matrix numerically singular or indefinite: LAPACK info {info}")
    # LAPACK works in Fortran order; the transpose of a symmetric matrix is
    # the same matrix, here in C order without a copy.
    return _mirror_lower(inverse).T


def align_base(X0: np.ndarray, Y0: np.ndarray, gamma: float,
               class_ids=None) -> AnalyticState:
    """Closed-form ridge fit of the base session; seeds W and R.

    Inverts G = X^T X + gamma I by Cholesky into R, the recursion's state,
    and sets W = R X^T Y, the same product that appends new class columns
    in :func:`update_weights`. ``class_ids`` defaults to 0..C0-1 when the
    base classes are not explicitly named. Non-finite features raise
    ValueError.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    X0 = np.asarray(X0, dtype=np.float64)
    Y0 = np.asarray(Y0, dtype=np.float64)
    if not np.isfinite(X0).all():
        raise ValueError("features contain non-finite values")
    if class_ids is None:
        class_ids = tuple(range(Y0.shape[1]))
    inv_gram = _spd_inverse(X0.T @ X0 + gamma * np.eye(X0.shape[1]))
    return AnalyticState(
        weights=inv_gram @ (X0.T @ Y0),
        inv_gram=inv_gram,
        seen_classes=tuple(int(c) for c in class_ids),
    )


def update_R(R_prev: np.ndarray, Xn: np.ndarray) -> np.ndarray:
    """Absorb a session's Gram contribution into the stored inverse.

    Computes (R_prev^{-1} + Xn^T Xn)^{-1}. When the session is small
    (N < d) the Woodbury form is used and the inner factor is only N x N:
    with K = Xn R_prev and L the Cholesky factor of I + K Xn^T,

        R_prev - V^T V,   V = L^{-1} K

    otherwise the Gram is rebuilt as R_prev^{-1} + Xn^T Xn and inverted
    directly, two Cholesky inverses for better conditioning. Either way one
    triangle of the result is mirrored into the other, so it is exactly
    symmetric. A singular or indefinite matrix raises ValueError.
    """
    R_prev = np.asarray(R_prev, dtype=np.float64)
    Xn = np.asarray(Xn, dtype=np.float64)
    d = R_prev.shape[0]
    if Xn.shape[1] != d:
        raise ValueError(f"feature dim {Xn.shape[1]} != R dim {d}")
    n = Xn.shape[0]
    if n == 0:
        return _mirror_lower(R_prev.copy())
    if n >= d:
        return _spd_inverse(_spd_inverse(R_prev) + Xn.T @ Xn)
    K = Xn @ R_prev                                       # (n, d)
    L, _ = _spd_factor(np.eye(n) + K @ Xn.T)              # (n, n), lower
    V = scipy.linalg.solve_triangular(L, K, lower=True, check_finite=False)
    # syrk writes one triangle of R_prev - V^T V into a Fortran-order copy of
    # R_prev.T, whose transpose is the C-order result once mirrored.
    R_new = scipy.linalg.blas.dsyrk(-1.0, V, beta=1.0, c=R_prev.T, trans=1, lower=1)
    return _mirror_lower(R_new).T


def update_weights(state: AnalyticState, batch: SessionBatch) -> AnalyticState:
    """One recursive class-incremental step; returns the successor state.

    R absorbs the new session first; then existing class columns are
    corrected by -R X^T X W_prev and the new classes' columns R X^T Y are
    appended. Revisiting an already-seen class is rejected.
    """
    overlap = set(batch.class_ids) & set(state.seen_classes)
    if overlap:
        raise ValueError(f"classes revisited across sessions: {sorted(overlap)}")
    X, Y = batch.features, batch.targets
    if X.shape[1] != state.feature_dim:
        raise ValueError(
            f"feature dim {X.shape[1]} != state dim {state.feature_dim}"
        )
    R_new = update_R(state.inv_gram, X)
    correction = R_new @ (X.T @ (X @ state.weights))
    old_cols = state.weights - correction
    new_cols = R_new @ (X.T @ Y)
    return AnalyticState(
        weights=np.hstack([old_cols, new_cols]),
        inv_gram=R_new,
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
    return scipy.linalg.cho_solve(_spd_factor(gram), np.hstack(blocks), check_finite=False)


def predict(X: np.ndarray, state: AnalyticState) -> np.ndarray:
    """Argmax class ids over the linear scores X @ W.

    Ties (including all-zero rows) resolve to the smallest class id among
    the tied columns, independent of the order classes were learned in.
    Non-finite scores (from NaN or inf features or weights) raise
    ValueError rather than yielding an id outside ``seen_classes``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != state.feature_dim:
        raise ValueError(f"feature dim {X.shape[1]} != state dim {state.feature_dim}")
    scores = X @ state.weights
    if not np.isfinite(scores).all():
        raise ValueError("non-finite classifier scores; features or weights contain NaN or inf")
    ids = np.asarray(state.seen_classes, dtype=np.int64)
    best = scores.max(axis=1, keepdims=True)
    candidates = np.where(scores == best, ids[None, :], np.iinfo(np.int64).max)
    return candidates.min(axis=1)
