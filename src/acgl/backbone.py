"""Two-layer GCN: forward pass, masked cross-entropy, exact gradients, Adam.

The forward map is

    hidden = relu(A_hat @ X @ W0)        (times a dropout mask while training)
    logits = A_hat @ hidden @ W1

with A_hat the symmetrically normalized adjacency. One function,
:func:`gcn_forward`, computes it for both training and inference; the
backward pass reuses it. Gradients are derived by hand so training is
exactly reproducible with plain numpy; dropout uses inverted scaling
(mask / keep_prob at train time, no mask at inference). One loop,
:func:`fit`, trains: full-batch Adam steps that update the weights and
moments in place. :func:`train_base` runs it once, on the base session.

The two largest products, ``X @ W0`` (forward) and ``adj_X.T @ d_z0``
(backward), are :func:`threads.split_matmul` calls; :mod:`acgl.threads`
says when they run partly on the helper thread.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import threads
from .graph import Graph, SessionPlan, check_fields, normalize_adjacency, session_subgraph

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class BackboneParams:
    """Weights of the two GCN layers. W0: (d, h), W1: (h, c0).

    Both are converted to float64 before they are checked, as
    :class:`acgl.expander.ExpanderParams` converts, but not frozen:
    :func:`fit`'s Adam step writes a copy of them in place.
    """

    W0: np.ndarray
    W1: np.ndarray

    def __post_init__(self):
        W0 = np.asarray(self.W0, dtype=np.float64)
        W1 = np.asarray(self.W1, dtype=np.float64)
        if W0.ndim != 2 or W1.ndim != 2:
            raise ValueError("W0 and W1 must be matrices")
        if W0.shape[1] != W1.shape[0]:
            raise ValueError(f"hidden dims disagree: W0 is {W0.shape}, W1 is {W1.shape}")
        if not (np.isfinite(W0).all() and np.isfinite(W1).all()):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "W0", W0)
        object.__setattr__(self, "W1", W1)


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
    hidden = np.maximum(adj @ threads.split_matmul(X, params.W0), 0.0)
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
    grad_W0 = threads.split_matmul(adj_X.T, d_z0)
    return grad_W0, grad_W1


@dataclass(frozen=True)
class BackboneConfig:
    hidden: int = 256
    epochs: int = 50
    lr: float = 0.001
    dropout: float = 0.5
    weight_decay: float = 5e-4

    def __post_init__(self):
        check_fields(self, [
            ("hidden", self.hidden >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
            ("lr", self.lr > 0, "must be positive"),
            ("dropout", 0.0 <= self.dropout < 1.0, "must lie in [0, 1)"),
            ("weight_decay", self.weight_decay >= 0, "must be >= 0"),
        ])


def adam_step(params: BackboneParams, grads: tuple[np.ndarray, np.ndarray],
              moments: tuple[np.ndarray, ...], t: int, config: BackboneConfig) -> None:
    """Step ``t`` (from 1) of bias-corrected Adam over both weight matrices, in place.

    ``moments`` holds the first and second moments of W0, then of W1, all
    zero before step 1. L2 weight decay is folded into the gradient before
    the moment update (grad + decay * param), matching decay applied
    through the loss. Writes ``params.W0``, ``params.W1`` and the four
    moments; ``grads`` is not written.
    """
    g0, g1 = grads
    if g0.shape != params.W0.shape or g1.shape != params.W1.shape:
        raise ValueError("gradient shapes must mirror parameter shapes")
    m0, v0, m1, v1 = moments
    for param, grad, m, v in ((params.W0, g0, m0, v0), (params.W1, g1, m1, v1)):
        if config.weight_decay:
            grad = grad + config.weight_decay * param
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        param -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def fit(params: BackboneParams, adj: sp.csr_array, X: np.ndarray, labels: np.ndarray,
        mask: np.ndarray, config: BackboneConfig, rng: np.random.Generator) -> BackboneParams:
    """``config.epochs`` full-batch Adam steps of the whole GCN from ``params``.

    Trains on the ``mask`` nodes of the graph ``adj`` with ``labels`` as head
    columns; no early stopping. Each epoch draws its dropout mask from
    ``rng`` (none at rate 0). Adam writes a copy of ``params``, not
    ``params`` itself; the result is checked once, when wrapped.
    """
    work = copy.deepcopy(params)    # unchecked: params was checked when built
    moments = tuple(np.zeros_like(w) for w in (work.W0, work.W0, work.W1, work.W1))
    adj_X = adj @ X                 # constant across epochs
    for t in range(1, config.epochs + 1):
        mask_drop = None
        if config.dropout > 0.0:
            mask_drop = sample_dropout_mask(rng, (X.shape[0], config.hidden), config.dropout)
        grads = gcn_backward(adj, X, work, labels, mask, mask_drop, adj_X=adj_X)
        adam_step(work, grads, moments, t, config)
    return BackboneParams(W0=work.W0, W1=work.W1)


def train_base(graph: Graph, plan: SessionPlan, config: BackboneConfig,
               seed: int) -> BackboneParams:
    """Train the backbone on the base session's induced subgraph.

    :func:`fit` from a Glorot init on the train-mask nodes of the base
    subgraph. The base group holds class ids 0..c0-1, so head column j is
    class id j. Init and dropout draw from ``seed``.
    """
    base = session_subgraph(graph, plan.base_classes)
    if not base.train_mask.any():
        raise ValueError("base session has an empty train split")
    rng = np.random.default_rng(seed)
    params = init_backbone(base.features.shape[1], config.hidden, len(plan.base_classes), rng)
    return fit(params, normalize_adjacency(base), base.features, base.labels, base.train_mask,
               config, rng)
