"""Two-layer GCN: forward pass, masked cross-entropy, exact gradients, Adam.

The forward map is

    hidden = relu(A_hat @ X @ W0)        (times a dropout mask while training)
    logits = A_hat @ hidden @ W1

with A_hat the symmetrically normalized adjacency. One function,
:func:`gcn_forward`, computes it for both training and inference; the
backward pass reuses it. Gradients are derived by hand so training is
exactly reproducible with plain numpy; dropout uses inverted scaling
(mask / keep_prob at train time, no mask at inference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .graph import Graph, SessionPlan, normalize_adjacency, session_subgraph

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class BackboneParams:
    """Weights of the two GCN layers. W0: (d, h), W1: (h, c0)."""

    W0: np.ndarray
    W1: np.ndarray

    def __post_init__(self):
        if self.W0.ndim != 2 or self.W1.ndim != 2:
            raise ValueError("W0 and W1 must be matrices")
        if self.W0.shape[1] != self.W1.shape[0]:
            raise ValueError(
                f"hidden dims disagree: W0 is {self.W0.shape}, W1 is {self.W1.shape}"
            )
        if not (np.isfinite(self.W0).all() and np.isfinite(self.W1).all()):
            raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class AdamState:
    """Per-matrix first/second moments plus the step count; :func:`adam_step` writes none."""

    m_W0: np.ndarray
    v_W0: np.ndarray
    m_W1: np.ndarray
    v_W1: np.ndarray
    step: int
    lr: float
    weight_decay: float = 0.0

    @classmethod
    def init(cls, params: BackboneParams, lr: float, weight_decay: float = 0.0) -> "AdamState":
        return cls(
            m_W0=np.zeros_like(params.W0),
            v_W0=np.zeros_like(params.W0),
            m_W1=np.zeros_like(params.W1),
            v_W1=np.zeros_like(params.W1),
            step=0,
            lr=lr,
            weight_decay=weight_decay,
        )


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_backbone(feature_dim: int, hidden_dim: int, num_base_classes: int,
                  rng: np.random.Generator) -> BackboneParams:
    return BackboneParams(
        W0=glorot_uniform(rng, feature_dim, hidden_dim),
        W1=glorot_uniform(rng, hidden_dim, num_base_classes),
    )


def sample_dropout_mask(rng: np.random.Generator, shape: tuple[int, int],
                        rate: float) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def gcn_forward(adj: sp.csr_array, X: np.ndarray, params: BackboneParams,
                dropout_mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run the two-layer GCN; returns (hidden, logits).

    ``hidden`` is relu(adj @ X @ W0), multiplied by ``dropout_mask`` (an
    already scaled inverted-dropout mask) when one is given; the logits are
    computed from that hidden layer. Inference passes no mask.
    """
    if X.shape[1] != params.W0.shape[0]:
        raise ValueError(f"feature dim {X.shape[1]} != W0 rows {params.W0.shape[0]}")
    hidden = np.maximum(adj @ (X @ params.W0), 0.0)
    if dropout_mask is not None:
        hidden = hidden * dropout_mask
    logits = adj @ (hidden @ params.W1)
    return hidden, logits


def masked_softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked rows; also returns full softmax probs.

    Stabilized by row-max subtraction, so huge logits neither overflow nor
    produce NaNs.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    probs = np.exp(log_probs)
    picked = log_probs[mask, labels[mask]]
    return float(-picked.mean()), probs


def gcn_backward(
    adj: sp.csr_array,
    X: np.ndarray,
    params: BackboneParams,
    labels: np.ndarray,
    mask: np.ndarray,
    dropout_mask: np.ndarray | None = None,
    adj_X: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the masked mean cross-entropy w.r.t. W0 and W1.

    ``dropout_mask`` must be the same (already scaled) mask used in the
    paired forward pass, or None. The relu subgradient at 0 is taken as 0.
    The relu gate is read from the returned hidden layer: a unit the mask
    drops has a zero gradient either way. ``adj_X`` is ``adj @ X``, for a
    caller that computes it once across epochs; it is formed here if None.
    """
    mask = np.asarray(mask, dtype=bool)
    hidden, logits = gcn_forward(adj, X, params, dropout_mask)
    _, probs = masked_softmax_cross_entropy(logits, labels, mask)

    n_masked = int(mask.sum())
    d_logits = np.zeros_like(probs)
    d_logits[mask] = probs[mask]
    d_logits[mask, labels[mask]] -= 1.0
    d_logits /= n_masked

    # adj is symmetric, so adj.T @ M == adj @ M throughout.
    back1 = adj @ d_logits
    grad_W1 = hidden.T @ back1
    d_hidden = back1 @ params.W1.T
    if dropout_mask is not None:
        d_hidden = d_hidden * dropout_mask
    d_z0 = d_hidden * (hidden > 0.0)
    if adj_X is None:
        adj_X = adj @ X
    grad_W0 = adj_X.T @ d_z0
    return grad_W0, grad_W1


def _adam_update(param, grad, m, v, state: AdamState, t: int):
    """One Adam step of one matrix; returns the new (param, m, v) and writes no input."""
    if state.weight_decay:
        grad = grad + state.weight_decay * param
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def adam_step(
    params: BackboneParams,
    grads: tuple[np.ndarray, np.ndarray],
    state: AdamState,
) -> tuple[BackboneParams, AdamState]:
    """One bias-corrected Adam step over both weight matrices.

    L2 weight decay is folded into the gradient before the moment update
    (grad += decay * param), matching decay applied through the loss.
    Returns new parameters and a new :class:`AdamState` with fresh moment
    arrays; ``params``, ``grads`` and ``state`` are not written.
    """
    g0, g1 = grads
    if g0.shape != params.W0.shape or g1.shape != params.W1.shape:
        raise ValueError("gradient shapes must mirror parameter shapes")
    t = state.step + 1
    new_W0, m0, v0 = _adam_update(params.W0, g0, state.m_W0, state.v_W0, state, t)
    new_W1, m1, v1 = _adam_update(params.W1, g1, state.m_W1, state.v_W1, state, t)
    new_state = replace(state, m_W0=m0, v_W0=v0, m_W1=m1, v_W1=v1, step=t)
    return BackboneParams(W0=new_W0, W1=new_W1), new_state


@dataclass(frozen=True)
class BackboneConfig:
    hidden: int = 256
    epochs: int = 50
    lr: float = 0.001
    dropout: float = 0.5
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.epochs < 0:
            raise ValueError("hidden must be >= 1 and epochs >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not self.weight_decay >= 0:
            raise ValueError("weight decay must be >= 0")


def train_base(graph: Graph, plan: SessionPlan, config: BackboneConfig) -> BackboneParams:
    """Train the backbone on the base session's induced subgraph.

    Runs ``config.epochs`` full-batch Adam steps on the train-mask nodes of
    the base subgraph; no early stopping. The label head indexes classes by
    their position in the base group. Deterministic given ``config.seed``.
    """
    base = session_subgraph(graph, plan.base_classes)
    if not base.train_mask.any():
        raise ValueError("base session has an empty train split")
    class_pos = {c: i for i, c in enumerate(plan.base_classes)}
    y = np.array([class_pos[int(c)] for c in base.labels], dtype=np.int64)

    adj = normalize_adjacency(base)
    X = base.features
    adj_X = adj @ X                 # constant across epochs
    rng = np.random.default_rng(config.seed)
    params = init_backbone(X.shape[1], config.hidden, len(plan.base_classes), rng)
    state = AdamState.init(params, lr=config.lr, weight_decay=config.weight_decay)

    for _ in range(config.epochs):
        mask_drop = None
        if config.dropout > 0.0:
            mask_drop = sample_dropout_mask(rng, (X.shape[0], config.hidden), config.dropout)
        grads = gcn_backward(adj, X, params, y, base.train_mask, mask_drop, adj_X=adj_X)
        params, state = adam_step(params, grads, state)
    return params

