"""Fixed random feature expansion on top of frozen backbone embeddings.

A single frozen random projection followed by relu lifts h-dimensional
embeddings to a wider space where a linear classifier has enough capacity.
The weight is drawn once from a seeded generator and never trained. An
optional variant multiplies by the normalized adjacency first, turning the
expansion into one more message-passing layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class ExpanderParams:
    weight: np.ndarray          # (h, d_out), frozen
    seed: int
    uses_adjacency: bool = False

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ValueError("expansion weight must be a matrix")
        w = np.ascontiguousarray(self.weight, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]


def init_expander(h: int, d_out: int, seed: int, uses_adjacency: bool = False) -> ExpanderParams:
    """Draw the frozen expansion weight, uniform in [-1/sqrt(h), 1/sqrt(h)].

    Requires d_out > h: the expansion must widen the representation.
    """
    if d_out <= h:
        raise ValueError(f"expansion dim {d_out} must exceed input dim {h}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(h)
    weight = rng.uniform(-bound, bound, size=(h, d_out))
    return ExpanderParams(weight=weight, seed=seed, uses_adjacency=uses_adjacency)


def expand(hidden: np.ndarray, params: ExpanderParams,
           adj: sp.csr_array | None = None) -> np.ndarray:
    """relu(hidden @ W), or relu(adj @ hidden @ W) for the adjacency variant.

    Pure and deterministic; output is entrywise nonnegative.
    """
    if hidden.shape[1] != params.input_dim:
        raise ValueError(
            f"hidden dim {hidden.shape[1]} != expander input dim {params.input_dim}"
        )
    pre = hidden @ params.weight
    if params.uses_adjacency:
        if adj is None:
            raise ValueError("adjacency-variant expander needs the normalized adjacency")
        pre = adj @ pre
    return np.maximum(pre, 0.0)
