"""Fixed random feature expansion on top of frozen backbone embeddings.

A single frozen random projection followed by relu lifts h-dimensional
embeddings to a wider space where a linear classifier has enough capacity.
The weight is drawn once from a seeded generator and never trained. The
product is one :func:`threads.split_matmul` (:mod:`acgl.threads`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import threads
from .graph import frozen


@dataclass(frozen=True)
class ExpanderParams:
    """The frozen expansion weight, a matrix held as C-contiguous float64 by
    :func:`acgl.graph.frozen`'s rule."""

    weight: np.ndarray          # (h, d_out), frozen

    def __post_init__(self):
        weight = np.asarray(self.weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError("expansion weight must be a matrix")
        object.__setattr__(self, "weight", frozen(weight))

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]


def init_expander(h: int, d_out: int, seed: int) -> ExpanderParams:
    """Draw the frozen expansion weight, uniform in [-1/sqrt(h), 1/sqrt(h)].

    Requires h >= 1 and d_out > h: the expansion must widen the representation.
    """
    if h < 1:
        raise ValueError(f"expander input dim h={h} must be at least 1")
    if d_out <= h:
        raise ValueError(f"expansion dim {d_out} must exceed input dim {h}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(h)
    weight = rng.uniform(-bound, bound, size=(h, d_out))
    return ExpanderParams(weight=weight)


def expand(hidden: np.ndarray, params: ExpanderParams) -> np.ndarray:
    """relu(hidden @ W). Pure and deterministic; output is entrywise nonnegative."""
    if hidden.shape[1] != params.input_dim:
        raise ValueError(
            f"hidden dim {hidden.shape[1]} != expander input dim {params.input_dim}"
        )
    return threads.split_matmul(hidden, params.weight, relu=True)
