"""Multi-exit MLP classifier with nested parameter sharing.

The network is a chain of K ReLU trunk blocks. Exit k attaches a linear
classifier head to the output of block k, so sub-network k consists of
trunk blocks 1..k plus head k: shallower sub-networks share every trunk
parameter with deeper ones. All K exits are evaluated in one forward
pass, and the training objective sums per-exit cross-entropy terms.

Parameters live in a single flat float64 vector with a fixed layout
(all trunk blocks in order, then all heads in order; weight before bias
within a layer). The layout is what makes per-sample gradients cheap to
store and lets pseudo-updates be expressed as plain vector arithmetic.

Gradients here are hand-derived reverse-mode passes, not autodiff.
`batch_weighted_grad` folds a coefficient matrix into one backward sweep
per exit for the "weighted sum of losses" case, and `per_sample_grad_dots`
returns the inner products <vec, d loss_i^(k)/d theta> the meta-learning
chain needs, layer by layer (dz_i . (h_i @ V_W.T + v_b) for a layer with
input h_i and error dz_i), without forming any per-sample gradient.
Training uses only these two. `per_sample_grads` materializes the dense
(B, K, P) tensor of per-sample per-exit gradients; it, `grad_weighted_loss`
and `pseudo_step` are the dense reference the finite-difference audits
and the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numkit import RngStream, log_sum_exp, require_finite, softmax_stable


@dataclass(frozen=True)
class BackboneConfig:
    """Architecture of a K-exit MLP: input width, trunk widths, class count."""

    input_dim: int
    trunk_widths: tuple[int, ...]
    num_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trunk_widths", tuple(int(w) for w in self.trunk_widths))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.trunk_widths) < 1:
            raise ConfigError("at least one trunk block is required")
        if any(w < 1 for w in self.trunk_widths):
            raise ConfigError(f"trunk widths must be >= 1, got {self.trunk_widths}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")

    @property
    def num_exits(self) -> int:
        return len(self.trunk_widths)


@dataclass
class LayerSlices:
    weight: slice
    bias: slice


def param_layout(config: BackboneConfig) -> tuple[list[LayerSlices], list[LayerSlices], int]:
    """Slices of each layer inside the flat parameter vector.

    Returns (block_slices, head_slices, total). Order: trunk blocks
    1..K, then heads 1..K; inside a layer the weight matrix (row-major,
    shape (out, in)) precedes the bias.
    """
    dims = [config.input_dim, *config.trunk_widths]
    offset = 0
    blocks: list[LayerSlices] = []
    for k in range(config.num_exits):
        n_w = dims[k + 1] * dims[k]
        blocks.append(
            LayerSlices(slice(offset, offset + n_w), slice(offset + n_w, offset + n_w + dims[k + 1]))
        )
        offset += n_w + dims[k + 1]
    heads: list[LayerSlices] = []
    c = config.num_classes
    for k in range(config.num_exits):
        n_w = c * config.trunk_widths[k]
        heads.append(LayerSlices(slice(offset, offset + n_w), slice(offset + n_w, offset + n_w + c)))
        offset += n_w + c
    return blocks, heads, offset


@dataclass
class Affine:
    """One linear layer: y = x @ weight.T + bias, weight shape (out, in)."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class BackboneParams:
    config: BackboneConfig
    blocks: list[Affine]
    heads: list[Affine]

    @property
    def num_params(self) -> int:
        return param_layout(self.config)[2]

    def flatten(self) -> np.ndarray:
        parts = []
        for layer in [*self.blocks, *self.heads]:
            parts.append(layer.weight.ravel())
            parts.append(layer.bias)
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, config: BackboneConfig, flat: np.ndarray) -> "BackboneParams":
        flat = np.asarray(flat, dtype=np.float64)
        block_sl, head_sl, total = param_layout(config)
        if flat.shape != (total,):
            raise ShapeError(f"flat parameter vector has shape {flat.shape}, expected ({total},)")
        dims = [config.input_dim, *config.trunk_widths]
        blocks = [
            Affine(flat[sl.weight].reshape(dims[k + 1], dims[k]).copy(), flat[sl.bias].copy())
            for k, sl in enumerate(block_sl)
        ]
        heads = [
            Affine(
                flat[sl.weight].reshape(config.num_classes, config.trunk_widths[k]).copy(),
                flat[sl.bias].copy(),
            )
            for k, sl in enumerate(head_sl)
        ]
        return cls(config, blocks, heads)

    def copy(self) -> "BackboneParams":
        return BackboneParams.from_flat(self.config, self.flatten())


def init_params(config: BackboneConfig, rng: RngStream) -> BackboneParams:
    """Fan-in scaled uniform weights, zero biases; deterministic in rng.

    Draw order is fixed (blocks then heads) so a given stream always
    produces the same parameter vector.
    """
    dims = [config.input_dim, *config.trunk_widths]
    blocks = []
    for k in range(config.num_exits):
        s = 1.0 / np.sqrt(dims[k])
        blocks.append(Affine(rng.uniform(-s, s, (dims[k + 1], dims[k])), np.zeros(dims[k + 1])))
    heads = []
    for k in range(config.num_exits):
        s = 1.0 / np.sqrt(config.trunk_widths[k])
        heads.append(
            Affine(rng.uniform(-s, s, (config.num_classes, config.trunk_widths[k])), np.zeros(config.num_classes))
        )
    return BackboneParams(config, blocks, heads)


@dataclass
class ExitOutputs:
    """Everything the K exits say about a batch.

    logits/probs: (B, K, C); losses/confidences: (B, K); predictions:
    (B, K) ints. confidence = max softmax probability. The label vector
    rides along so downstream inference can score correctness.
    """

    logits: np.ndarray
    probs: np.ndarray
    losses: np.ndarray
    confidences: np.ndarray
    predictions: np.ndarray
    labels: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.logits.shape[0]

    @property
    def num_exits(self) -> int:
        return self.logits.shape[1]


def _validate_batch(config: BackboneConfig, batch: np.ndarray, labels: np.ndarray):
    batch = np.ascontiguousarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != config.input_dim:
        raise ShapeError(f"batch shape {batch.shape} does not match input_dim={config.input_dim}")
    require_finite(batch, "batch")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != batch.shape[0]:
        raise ShapeError(f"labels shape {labels.shape} does not match batch rows {batch.shape[0]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= config.num_classes):
        raise ShapeError(f"labels must lie in [0, {config.num_classes})")
    return batch, labels.astype(np.int64)


def _hidden_states(params: BackboneParams, batch: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Activations hs[j] (input of block j) and pre-activations zs[j]."""
    hs = [batch]
    zs = []
    for blk in params.blocks:
        z = hs[-1] @ blk.weight.T + blk.bias
        zs.append(z)
        hs.append(np.maximum(z, 0.0))
    return hs, zs


def forward_all(params: BackboneParams, batch, labels) -> ExitOutputs:
    """Evaluate every exit on a batch in one shared-trunk pass."""
    config = params.config
    batch, labels = _validate_batch(config, batch, labels)
    b, k_exits, c = batch.shape[0], config.num_exits, config.num_classes
    hs, _ = _hidden_states(params, batch)
    logits = np.empty((b, k_exits, c))
    for k, head in enumerate(params.heads):
        logits[:, k, :] = hs[k + 1] @ head.weight.T + head.bias
    flat = logits.reshape(b * k_exits, c)
    probs = softmax_stable(flat).reshape(b, k_exits, c)
    lse = log_sum_exp(flat).reshape(b, k_exits)
    picked = np.take_along_axis(logits, labels[:, None, None], axis=2)[:, :, 0]
    losses = lse - picked
    confidences = probs.max(axis=2)
    predictions = probs.argmax(axis=2)
    return ExitOutputs(logits, probs, losses, confidences, predictions, labels)


def per_sample_grads(params: BackboneParams, batch, labels) -> np.ndarray:
    """Gradient of every per-sample per-exit loss, dense (B, K, P).

    Row (i, k) is d loss_i^(k) / d theta over the full flat layout.
    Entries for trunk blocks deeper than k and for heads other than k
    are exactly zero (exit k's loss never touches them).
    """
    config = params.config
    batch, labels = _validate_batch(config, batch, labels)
    b, k_exits = batch.shape[0], config.num_exits
    block_sl, head_sl, total = param_layout(config)
    hs, zs = _hidden_states(params, batch)
    out = np.zeros((b, k_exits, total))
    onehot = np.zeros((b, config.num_classes))
    onehot[np.arange(b), labels] = 1.0
    for k in range(k_exits):
        logits_k = hs[k + 1] @ params.heads[k].weight.T + params.heads[k].bias
        dlog = softmax_stable(logits_k) - onehot
        out[:, k, head_sl[k].weight] = np.einsum("bc,bh->bch", dlog, hs[k + 1]).reshape(b, -1)
        out[:, k, head_sl[k].bias] = dlog
        dh = dlog @ params.heads[k].weight
        for j in range(k, -1, -1):
            dz = dh * (zs[j] > 0)
            out[:, k, block_sl[j].weight] = np.einsum("bo,bi->boi", dz, hs[j]).reshape(b, -1)
            out[:, k, block_sl[j].bias] = dz
            dh = dz @ params.blocks[j].weight
    return out


def batch_weighted_grad(params: BackboneParams, batch, labels, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of sum_{i,k} coeffs[i,k] * loss_i^(k), flat (P,).

    Same math as contracting `per_sample_grads` with coeffs, but the
    coefficients are folded into the logit error before the backward
    sweep, so the (B, K, P) tensor is never built.
    """
    config = params.config
    batch, labels = _validate_batch(config, batch, labels)
    b, k_exits = batch.shape[0], config.num_exits
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (b, k_exits):
        raise ShapeError(f"coeffs shape {coeffs.shape}, expected ({b}, {k_exits})")
    block_sl, head_sl, total = param_layout(config)
    hs, zs = _hidden_states(params, batch)
    onehot = np.zeros((b, config.num_classes))
    onehot[np.arange(b), labels] = 1.0
    grad = np.zeros(total)
    for k in range(k_exits):
        logits_k = hs[k + 1] @ params.heads[k].weight.T + params.heads[k].bias
        dlog = coeffs[:, k : k + 1] * (softmax_stable(logits_k) - onehot)
        grad[head_sl[k].weight] += (dlog.T @ hs[k + 1]).ravel()
        grad[head_sl[k].bias] += dlog.sum(axis=0)
        dh = dlog @ params.heads[k].weight
        for j in range(k, -1, -1):
            dz = dh * (zs[j] > 0)
            grad[block_sl[j].weight] += (dz.T @ hs[j]).ravel()
            grad[block_sl[j].bias] += dz.sum(axis=0)
            dh = dz @ params.blocks[j].weight
    return grad


def per_sample_grad_dots(params: BackboneParams, batch, labels, vec: np.ndarray) -> np.ndarray:
    """Inner products <vec, d loss_i^(k) / d theta>, shape (B, K).

    Same numbers as contracting `per_sample_grads` with vec, but no
    gradient row is built: the gradient of a layer with input h and
    output error dz is the outer product dz h^T (plus dz for the bias),
    so its inner product with vec's slice (V_W, v_b) is
    dz . (h @ V_W.T + v_b). Each layer input is projected onto vec once
    and shared by every exit whose backward sweep passes through it.
    """
    config = params.config
    batch, labels = _validate_batch(config, batch, labels)
    b = batch.shape[0]
    block_sl, head_sl, total = param_layout(config)
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (total,):
        raise ShapeError(f"vec shape {vec.shape}, expected ({total},)")
    hs, zs = _hidden_states(params, batch)
    dims = [config.input_dim, *config.trunk_widths]
    proj = [
        hs[j] @ vec[sl.weight].reshape(dims[j + 1], dims[j]).T + vec[sl.bias]
        for j, sl in enumerate(block_sl)
    ]
    onehot = np.zeros((b, config.num_classes))
    onehot[np.arange(b), labels] = 1.0
    out = np.empty((b, config.num_exits))
    for k, head in enumerate(params.heads):
        sl = head_sl[k]
        v_head = vec[sl.weight].reshape(config.num_classes, dims[k + 1])
        dlog = softmax_stable(hs[k + 1] @ head.weight.T + head.bias) - onehot
        acc = np.einsum("bc,bc->b", dlog, hs[k + 1] @ v_head.T + vec[sl.bias])
        dh = dlog @ head.weight
        for j in range(k, -1, -1):
            dz = dh * (zs[j] > 0)
            acc += np.einsum("bo,bo->b", dz, proj[j])
            dh = dz @ params.blocks[j].weight
        out[:, k] = acc
    return out


def weighted_train_loss(losses: np.ndarray, weights: np.ndarray) -> float:
    """(1/B) * sum_{i,k} weights[i,k] * losses[i,k].

    With weights identically 1 this is the plain cumulative multi-exit
    loss; the expression is shared so the two agree bit for bit.
    """
    losses = np.asarray(losses, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if losses.ndim != 2 or losses.shape != weights.shape:
        raise ShapeError(f"losses {losses.shape} and weights {weights.shape} must be equal 2-D shapes")
    return float(np.sum(weights * losses) / losses.shape[0])


def cumulative_loss(losses: np.ndarray) -> float:
    """Unweighted multi-exit training loss, (1/B) * sum of all entries."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 2:
        raise ShapeError(f"losses must be 2-D, got ndim={losses.ndim}")
    return weighted_train_loss(losses, np.ones_like(losses))


def grad_weighted_loss(psg: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Flat gradient of weighted_train_loss from stored per-sample grads."""
    psg = np.asarray(psg, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if psg.ndim != 3 or weights.shape != psg.shape[:2]:
        raise ShapeError(f"per-sample grads {psg.shape} and weights {weights.shape} do not align")
    return np.einsum("bk,bkp->p", weights, psg) / psg.shape[0]


def sgd_step(
    params: BackboneParams,
    grad: np.ndarray,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    velocity: np.ndarray | None = None,
) -> tuple[BackboneParams, np.ndarray | None]:
    """One SGD step with optional momentum buffer; L2 decay is folded
    into the gradient before the momentum update:

        g = grad + weight_decay * theta
        v = momentum * v_prev + g        (v_prev = 0 on first use)
        theta' = theta - lr * v          (theta - lr * g when momentum == 0)

    Returns (new params, new velocity); velocity is None when momentum is 0.
    """
    flat = params.flatten()
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != flat.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match parameter count {flat.shape}")
    require_finite(grad, "grad")
    g = grad + weight_decay * flat if weight_decay != 0.0 else grad
    if momentum != 0.0:
        v = momentum * velocity + g if velocity is not None else g.copy()
        return BackboneParams.from_flat(params.config, flat - lr * v), v
    return BackboneParams.from_flat(params.config, flat - lr * g), None


def pseudo_step(
    params: BackboneParams, psg: np.ndarray, weights: np.ndarray, alpha: float
) -> BackboneParams:
    """Momentum-free lookahead step against the weighted training loss.

    theta_hat = theta - alpha * grad_weighted_loss(psg, weights). Kept
    plain (no momentum, no decay) so theta_hat is an affine function of
    the weight matrix, which makes the analytic weight gradient exact.
    """
    return BackboneParams.from_flat(
        params.config, params.flatten() - alpha * grad_weighted_loss(psg, weights)
    )


def count_mul_adds(config: BackboneConfig) -> np.ndarray:
    """Per-exit inference cost in multiply-accumulate operations.

    Exit k pays for trunk blocks 1..k plus its own head; an affine layer
    costs in_dim * out_dim per sample. Returns int64 (K,).
    """
    dims = [config.input_dim, *config.trunk_widths]
    costs = np.empty(config.num_exits, dtype=np.int64)
    trunk = 0
    for k in range(config.num_exits):
        trunk += dims[k] * dims[k + 1]
        costs[k] = trunk + config.trunk_widths[k] * config.num_classes
    return costs
