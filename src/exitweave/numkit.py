"""Dense float64 numerics and seeded random streams.

All heavy math in this package runs on C-contiguous float64 ndarrays.
The helpers here pin down the conventions the rest of the code relies on:
explicit errors for non-finite values, an overflow-safe softmax and
log-sum-exp in one pass (`softmax_lse`) and sigmoid, and a reproducible
RNG tree where every consumer draws from its own labeled child stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError


def require_finite(arr: np.ndarray, name: str = "array", error=NumericError) -> np.ndarray:
    """arr, or `error` naming it when an entry is NaN or infinite."""
    if not np.isfinite(arr).all():  # the method skips np.all's dispatch wrapper
        raise error(f"{name} contains non-finite entries")
    return arr


def softmax_lse(logits) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and log-sum-exp over the last axis of a 1-D row or 2-D batch.

    One row max m serves both halves: with e = exp(x - m) and
    s = e.sum(-1), probs = e / s and lse = m + log(s). Large logits never
    overflow; rows of probs sum to 1 and every entry is > 0.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ShapeError(f"logits must be 1-D or 2-D, got ndim={x.ndim}")
    require_finite(x, "logits")
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, (m + np.log(s))[..., 0]


def softmax_stable(logits) -> np.ndarray:
    """The softmax half of `softmax_lse`."""
    return softmax_lse(logits)[0]


def sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, safe for large |x| of either sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _child_seed(seed: int, label: str) -> int:
    # sha256 keeps child streams independent of platform word size / hash salt.
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class RngStream:
    """A seeded random stream with labeled, independently-seeded children.

    Streams wrap numpy's PCG64 generator: the same seed always replays the
    same draw sequence. `child(label)` derives a new stream whose seed is a
    hash of (seed, label), so adding a consumer never shifts the draws of
    existing ones.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, label: str) -> "RngStream":
        return RngStream(_child_seed(self.seed, label))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)
