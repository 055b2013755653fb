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
delta and returns one `WpnPass`, a `backbone.LayerPass` as
`backbone.ForwardPass` is: the weights plus what its backward sweep
`wpn_backward` reads, the hidden layers' outputs with the ReLU masks
the pass caches from them, and the sigmoids `make_weights` returns.
Its layers run as a one-exit trunk's: `relu_forward`, then `head_forward`.

The backward pass here is hand-derived. Its input is dL/d(weight) for a
downstream scalar L; the zero-sum normalization is its own transpose
(g -> g - mean(g)), the squash contributes 2 * delta * s * (1 - s), and
the network, a one-exit trunk, runs the backbone's sweep. Its input for
the lookahead objective is exact with no second-order terms: the
lookahead step is affine in the weights, so
dL/dw[i,k] = -(alpha/n) * <meta_grad, g[i,k]>.
Training and `gradcheck` take those inner products layer by layer
(`trainer.meta_chain` via `backbone.per_sample_grad_dots`);
`meta_weight_grad` here contracts a stored (B, K, P) per-sample gradient
tensor, a dense reference only the tests and the benchmark tracer call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .backbone import FlatParams, LayerPass, _tops_grad, head_forward, relu_forward
from .errors import ConfigError, ShapeError
from .numkit import RngStream, require_finite, sigmoid_stable
from .serial import convert_fields

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


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
        convert_fields(self)
        if self.num_exits < 1:
            raise ConfigError(f"num_exits must be >= 1, got {self.num_exits}")
        if self.hidden_width < 1 or self.hidden_depth < 1:
            raise ConfigError("hidden_width and hidden_depth must be >= 1")
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")


class WpnParams(FlatParams):
    """Layers K -> width (x depth, ReLU) -> K, as views into one flat buffer:
    a one-exit trunk, the hidden layers its `blocks`, the last its `head`."""

    @staticmethod
    def num_heads(config: WpnConfig) -> int:
        return 1

    @staticmethod
    @cache
    def layer_shapes(config: WpnConfig) -> tuple[tuple[int, int], ...]:
        w, k = config.hidden_width, config.num_exits
        return ((w, k), *((w, w),) * (config.hidden_depth - 1), (k, w))


def init_wpn(config: WpnConfig, rng: RngStream) -> WpnParams:
    """Fan-in scaled uniform weights, zero biases, fixed draw order."""
    return WpnParams.fan_in_uniform(config, rng)


def wpn_forward(params: WpnParams, loss_matrix) -> tuple[np.ndarray, list[np.ndarray]]:
    """Raw (B, K) scores for a (B, K) matrix of per-exit sample losses, and
    the `relu_forward` activations hs of the hidden layers."""
    x = np.ascontiguousarray(loss_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.config.num_exits:
        raise ShapeError(
            f"loss matrix shape {x.shape} does not match num_exits={params.config.num_exits}"
        )
    require_finite(x, "loss matrix")
    hs = relu_forward(params.blocks, x)
    return head_forward(params, hs)[0], hs


def make_weights(raw, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn raw scores into zero-sum perturbations and mean-one weights.

    Returns (perturbation, weights, sigmoids): perturbation sums to zero
    over the whole matrix, weights = 1 + perturbation, and sigmoids =
    sigmoid(raw) is what the backward sweep reads. Weights stay
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
    ptb = pre - np.add.reduce(pre, axis=None) / pre.size
    return ptb, 1.0 + ptb, s


@dataclass
class WpnPass(LayerPass):
    """One weight-network pass at one parameter point, kept for its backward sweep.

    The counterpart of `backbone.ForwardPass`: hs are the hidden
    activations (hs[0] is the loss matrix), weights is the (B, K)
    weight matrix and sigmoids the squashed raw scores.
    """

    params: WpnParams
    weights: np.ndarray
    sigmoids: np.ndarray


def wpn_weights(params: WpnParams, loss_matrix) -> WpnPass:
    """`wpn_forward` then `make_weights` at the network's delta."""
    raw, hs = wpn_forward(params, loss_matrix)
    _, weights, sigmoids = make_weights(raw, params.config.delta)
    return WpnPass(params, hs, weights, sigmoids)


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


def wpn_backward(wpn_pass: WpnPass, dl_dweights: np.ndarray, out: WpnParams) -> np.ndarray:
    """Flat gradient wrt the network parameters of `wpn_pass` given dL/d(weights).

    Chain: weights = 1 + (pre - mean(pre)) with pre = delta*(2*sigmoid(raw)-1),
    then the MLP. dl_dweights must have the shape of the pass's weights.
    The gradient is written into out, a WpnParams of the pass's config,
    and out.buffer is returned.
    """
    g = np.asarray(dl_dweights, dtype=np.float64)
    if g.shape != wpn_pass.weights.shape:
        raise ShapeError(f"dl_dweights shape {g.shape} does not match the weights {wpn_pass.weights.shape}")
    # Zero-sum normalization: J = I - (1/BK) 11^T is symmetric.
    g = g - np.add.reduce(g, axis=None) / g.size
    s = wpn_pass.sigmoids
    dz = g * (2.0 * wpn_pass.params.config.delta) * s * (1.0 - s)
    return _tops_grad(wpn_pass, dz[None], out)


@dataclass
class AdamState:
    """First/second moment buffers plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(flat_params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> tuple[np.ndarray, AdamState]:
    """Standard bias-corrected Adam on a flat parameter vector, in place,
    at the usual moment decay rates ADAM_BETA1, ADAM_BETA2 and guard ADAM_EPS:

        m = b1 * m + (1 - b1) * g,  v = b2 * v + (1 - b2) * g * g
        theta -= lr * m_hat / (sqrt(v_hat) + eps),  m_hat = m / (1 - b1^t),  v_hat = v / (1 - b2^t)

    flat_params, state.m and state.v are overwritten and state.step
    advances to t; returns (flat_params, state), the same objects. A
    target that is not a float64 ndarray raises ShapeError, and a
    non-finite grad NumericError, before anything is written.
    """
    if not isinstance(flat_params, np.ndarray) or flat_params.dtype != np.float64:
        got = getattr(flat_params, "dtype", type(flat_params).__name__)
        raise ShapeError(f"params must be a float64 ndarray, got {got}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != flat_params.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match params {flat_params.shape}")
    require_finite(grad, "grad")
    t = state.step + 1
    term = np.multiply(1.0 - ADAM_BETA1, grad)
    np.multiply(ADAM_BETA1, state.m, out=state.m)
    state.m += term
    np.multiply(1.0 - ADAM_BETA2, grad, out=term)
    term *= grad
    np.multiply(ADAM_BETA2, state.v, out=state.v)
    state.v += term
    denom = np.divide(state.v, 1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1**t, out=term)
    np.multiply(lr, term, out=term)
    term /= denom
    flat_params -= term
    state.step = t
    return flat_params, state
