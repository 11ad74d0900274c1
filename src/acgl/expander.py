"""Fixed random feature expansion on top of frozen backbone embeddings.

A single frozen random projection followed by relu lifts h-dimensional
embeddings to a wider space where a linear classifier has enough capacity.
The weight is drawn once from a seeded generator and never trained. From
``threads.SPLIT_MADDS`` multiply-adds on, the lower rows' product and ReLU
run on the helper thread (:func:`threads.split_matmul`), bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import threads


@dataclass(frozen=True)
class ExpanderParams:
    """The frozen expansion weight. A caller's C-contiguous float64 weight is kept, not
    copied, and made read-only, so it turns read-only too; any other is copied."""

    weight: np.ndarray          # (h, d_out), frozen

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ValueError("expansion weight must be a matrix")
        w = np.ascontiguousarray(self.weight, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]


def init_expander(h: int, d_out: int, seed: int) -> ExpanderParams:
    """Draw the frozen expansion weight, uniform in [-1/sqrt(h), 1/sqrt(h)].

    Requires d_out > h: the expansion must widen the representation.
    """
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
