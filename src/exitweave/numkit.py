"""Dense float64 numerics and seeded random streams.

All heavy math in this package runs on C-contiguous float64 ndarrays.
The helpers here pin down the conventions the rest of the code relies on:
explicit errors for non-finite values, an overflow-safe softmax and
log-sum-exp in one pass (`softmax_lse`) and sigmoid, and a reproducible
RNG tree (`RngStream`, numpy's PCG64 `Generator` plus labeled children)
where every consumer draws from its own child stream.
"""

from __future__ import annotations

import hashlib

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
    overflow and rows of probs sum to 1, but an entry is exactly 0.0 once
    its logit trails the row max by more than about 745. m is read at
    the argmax, x.max(-1) up to the sign of a zero max, which neither
    x - m nor the log-sum-exp depends on. The reductions call the ufunc
    methods directly, skipping numpy's Python-level wrappers.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ShapeError(f"logits must be 1-D or 2-D, got ndim={x.ndim}")
    require_finite(x, "logits")
    rows = x if x.ndim == 2 else x[None]  # a 1-D x as one row
    m = rows[np.arange(rows.shape[0]), rows.argmax(axis=1)][:, None]
    e = np.subtract(rows, m)  # the one array of x's shape: exp and division run in place
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=1, keepdims=True)
    e /= s
    return e.reshape(x.shape), (m + np.log(s)).reshape(x.shape[:-1])


def softmax_stable(logits) -> np.ndarray:
    """The softmax half of `softmax_lse`."""
    return softmax_lse(logits)[0]


def sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, safe for large |x| of either sign.

    With e = exp(-|x|), never above 1: 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere, bitwise the two masked halves they replace.
    -|x| is taken as min(x, -x), which keeps a NaN's sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _child_seed(seed: int, label: str) -> int:
    # sha256 keeps child streams independent of platform word size / hash salt.
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream(np.random.Generator):
    """A seeded random stream with labeled, independently-seeded children.

    A numpy Generator over PCG64(seed): the same seed always replays the
    same draw sequence. `child(label)` derives a new stream whose seed is
    a hash of (seed, label), so adding a consumer never shifts the draws
    of existing ones.
    """

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.seed = seed

    def child(self, label: str) -> "RngStream":
        return RngStream(_child_seed(self.seed, label))
