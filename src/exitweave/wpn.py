"""Weight prediction network: per-sample loss vectors in, loss weights out.

A small ReLU MLP maps each sample's K per-exit losses to K raw scores.
The scores are squashed and normalized into training weights:

    s      = sigmoid(raw)                 entries in (0, 1)
    pre    = delta * (2 s - 1)            entries in (-delta, +delta)
    ptb    = pre - mean(pre)              mean over ALL B*K entries
    weight = 1 + ptb                      mean exactly 1

so the network can only redistribute emphasis between samples and exits,
never change the total. With delta = 0 every weight is exactly 1 and the
whole mechanism degenerates to plain unweighted training.

`wpn_weights` runs the network and the squash at the network's own
delta and returns one `WpnPass`, the counterpart of
`backbone.ForwardPass`: the weights plus the activations and sigmoids
that its backward sweep `wpn_backward` reads.

The backward pass here is hand-derived. Its input is dL/d(weight) for a
downstream scalar L; the zero-sum normalization is its own transpose
(g -> g - mean(g)), the squash contributes 2 * delta * s * (1 - s), and
the rest is a standard MLP backward. Its input for the lookahead
objective is exact with no second-order terms: the lookahead step is
affine in the weights, so dL/dw[i,k] = -(alpha/n) * <meta_grad, g[i,k]>.
Training takes those inner products layer by layer
(`trainer.meta_chain` via `backbone.per_sample_grad_dots`);
`meta_weight_grad` here is the dense reference that contracts a stored
(B, K, P) per-sample gradient tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import FlatParams, accumulate_grads, relu_forward
from .errors import ConfigError, ShapeError
from .numkit import RngStream, require_finite, sigmoid_stable


@dataclass(frozen=True)
class WpnConfig:
    """Shape of the weight prediction network.

    num_exits fixes both the input and output width. delta bounds the
    perturbation magnitude; delta = 0 is the degenerate all-ones case.
    """

    num_exits: int
    hidden_width: int = 500
    hidden_depth: int = 1
    delta: float = 0.8

    def __post_init__(self) -> None:
        if self.num_exits < 1:
            raise ConfigError(f"num_exits must be >= 1, got {self.num_exits}")
        if self.hidden_width < 1 or self.hidden_depth < 1:
            raise ConfigError("hidden_width and hidden_depth must be >= 1")
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")


class WpnParams(FlatParams):
    """Layers K -> width (x depth, ReLU) -> K, as views into one flat buffer."""

    @staticmethod
    def layer_shapes(config: WpnConfig) -> tuple[tuple[int, int], ...]:
        w, k = config.hidden_width, config.num_exits
        return ((w, k), *((w, w),) * (config.hidden_depth - 1), (k, w))


def init_wpn(config: WpnConfig, rng: RngStream) -> WpnParams:
    """Fan-in scaled uniform weights, zero biases, fixed draw order."""
    return WpnParams.fan_in_uniform(config, rng)


def wpn_forward(params: WpnParams, loss_matrix) -> tuple[np.ndarray, tuple[list, list]]:
    """Raw (B, K) scores for a (B, K) matrix of per-exit sample losses, and
    the `relu_forward` activations (hs, zs) of the hidden layers."""
    x = np.ascontiguousarray(loss_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.num_exits:
        raise ShapeError(
            f"loss matrix shape {x.shape} does not match num_exits={params.config.num_exits}"
        )
    require_finite(x, "loss matrix")
    hs, zs = relu_forward(params.layers[:-1], x)
    last = params.layers[-1]
    return hs[-1] @ last.weight.T + last.bias, (hs, zs)


@dataclass
class WeightCache:
    """Squash state needed to backpropagate through make_weights."""

    sigmoids: np.ndarray


def make_weights(raw, delta: float) -> tuple[np.ndarray, np.ndarray, WeightCache]:
    """Turn raw scores into zero-sum perturbations and mean-one weights.

    Returns (perturbation, weights, cache): perturbation sums to zero
    over the whole matrix, weights = 1 + perturbation. Weights stay
    positive whenever delta < 0.5; larger delta admits negative weights.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise ShapeError(f"raw scores must be 2-D, got ndim={raw.ndim}")
    if not (0.0 <= delta < 1.0):
        raise ConfigError(f"delta must lie in [0, 1), got {delta}")
    require_finite(raw, "raw scores")
    s = sigmoid_stable(raw)
    pre = delta * (2.0 * s - 1.0)
    ptb = pre - pre.mean()
    return ptb, 1.0 + ptb, WeightCache(s)


@dataclass
class WpnPass:
    """One weight-network pass at one parameter point, kept for its backward sweep.

    The counterpart of `backbone.ForwardPass`: weights is the (B, K)
    weight matrix, hs/zs the hidden activations from `relu_forward`
    (hs[0] is the loss matrix) and sigmoids the squashed raw scores.
    """

    params: WpnParams
    weights: np.ndarray
    hs: list[np.ndarray]
    zs: list[np.ndarray]
    sigmoids: np.ndarray


def wpn_weights(params: WpnParams, loss_matrix) -> WpnPass:
    """`wpn_forward` then `make_weights` at the network's delta."""
    raw, (hs, zs) = wpn_forward(params, loss_matrix)
    _, weights, cache = make_weights(raw, params.config.delta)
    return WpnPass(params, weights, hs, zs, cache.sigmoids)


def meta_weight_grad(psg: np.ndarray, meta_grad: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """Exact d(lookahead objective)/d(weight matrix), shape (B, K); dense reference.

    The lookahead parameters are theta - (alpha/n) * sum w[i,k] g[i,k],
    an affine map of the weights, so the derivative wrt w[i,k] is the
    inner product -(alpha/n) * <meta_grad, g[i,k]> with no curvature
    correction. This form contracts a stored per-sample gradient tensor
    psg; training computes the same numbers without one
    (`trainer.meta_chain`), and the tests check the two agree.
    """
    psg = np.asarray(psg, dtype=np.float64)
    meta_grad = np.asarray(meta_grad, dtype=np.float64)
    if psg.ndim != 3 or meta_grad.shape != (psg.shape[2],):
        raise ShapeError(
            f"per-sample grads {psg.shape} and objective grad {meta_grad.shape} do not align"
        )
    if n < 1:
        raise ShapeError(f"normalizer n must be >= 1, got {n}")
    return -(alpha / n) * np.einsum("bkp,p->bk", psg, meta_grad)


def wpn_backward(wpn_pass: WpnPass, dl_dweights: np.ndarray) -> np.ndarray:
    """Flat gradient wrt the network parameters of `wpn_pass` given dL/d(weights).

    Chain: weights = 1 + (pre - mean(pre)) with pre = delta*(2*sigmoid(raw)-1),
    then the MLP. dl_dweights must have the shape of the pass's weights.
    """
    g = np.asarray(dl_dweights, dtype=np.float64)
    if g.shape != wpn_pass.weights.shape:
        raise ShapeError(f"dl_dweights shape {g.shape} does not match the weights {wpn_pass.weights.shape}")
    params = wpn_pass.params
    # Zero-sum normalization: J = I - (1/BK) 11^T is symmetric.
    g = g - g.mean()
    s = wpn_pass.sigmoids
    dz = g * (2.0 * params.config.delta) * s * (1.0 - s)
    grad = WpnParams.zeros(params.config)
    accumulate_grads(params.layers, wpn_pass.hs, wpn_pass.zs, dz, grad.layers)
    return grad.buffer


@dataclass
class AdamState:
    """First/second moment buffers plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(
    flat_params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """Standard bias-corrected Adam on a flat parameter vector."""
    flat_params = np.asarray(flat_params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != flat_params.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match params {flat_params.shape}")
    require_finite(grad, "grad")
    t = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new = flat_params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new, AdamState(m, v, t)
