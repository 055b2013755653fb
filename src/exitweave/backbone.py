"""Multi-exit MLP classifier with nested parameter sharing.

The network is a chain of K ReLU trunk blocks. Exit k attaches a linear
classifier head to the output of block k, so sub-network k consists of
trunk blocks 1..k plus head k: shallower sub-networks share every trunk
parameter with deeper ones. All K exits are evaluated in one forward
pass, and the training objective sums per-exit cross-entropy terms.

Parameters live in one flat float64 buffer (all trunk blocks in order,
then all heads in order; weight before bias within a layer), reached
through per-layer `Affine` views (`FlatParams`). The weight network
keeps its parameters the same way: the layout rule, the dense ReLU
forward pass and the reverse sweep are defined once, here. The layout
of a shape tuple is computed once (`layer_slices`) and shared, immutable,
by every parameter, gradient and lookahead buffer of those shapes; each
buffer builds only its own views. Gradients share the layout, so a
backward pass writes into a zero buffer through the same views, and SGD
and lookahead steps are plain arithmetic on buffers.

Gradients here are hand-derived reverse-mode passes, not autodiff. They
start from a `ForwardPass` (`forward_pass`): the exit outputs plus the
trunk activations at one parameter point, so every gradient at that point
reuses one trunk pass; each exit head is one `softmax_lse` pass, with
the confidence read at the prediction. `forward_all` returns the outputs
alone and keeps no activations: it runs a large batch (an evaluation
split) as cache-sized row blocks, with bitwise the outputs of one
whole-batch pass. Both check their inputs as a `datahub.Dataset`, the one
check of a dataset's contents, plus the trunk's input width.
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

from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np

from .datahub import Dataset
from .errors import ConfigError, ShapeError
from .numkit import RngStream, require_finite, softmax_lse

# forward_all splits larger batches into row blocks of at most this many rows
FORWARD_BLOCK_ROWS = 1024


# -- dense ReLU layers over one flat float64 buffer, shared with the weight network

@dataclass
class Affine:
    """One linear layer: y = x @ weight.T + bias, weight shape (out, in)."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class LayerSlices:
    weight: slice
    bias: slice


@cache
def layer_slices(shapes: tuple[tuple[int, int], ...]) -> tuple[tuple[LayerSlices, ...], int]:
    """Slices of each (out, in) layer inside the flat buffer, and its length.

    Computed once per shape tuple: every caller receives the same
    immutable tuple of frozen slices.
    """
    slices = []
    offset = 0
    for out_dim, in_dim in shapes:
        end = offset + out_dim * in_dim
        slices.append(LayerSlices(slice(offset, end), slice(end, end + out_dim)))
        offset = end + out_dim
    return tuple(slices), offset


class FlatParams:
    """A network's parameters: one flat float64 buffer plus per-layer views.

    `layers[j]` is an Affine whose weight and bias are views into
    `buffer`, so writing through a view writes the buffer. The
    constructor wraps the buffer it is given; `from_flat` copies first.
    Subclasses define `layer_shapes(config)`, the (out, in) of each
    layer as a tuple, which keys the cached `layer_slices` layout.
    """

    def __init__(self, config, buffer: np.ndarray):
        shapes = self.layer_shapes(config)
        slices, total = layer_slices(shapes)
        if buffer.shape != (total,):
            raise ShapeError(f"parameter vector has shape {buffer.shape}, layout implies {total} entries")
        self.config = config
        self.buffer = buffer
        self.layers = [
            Affine(buffer[sl.weight].reshape(shape), buffer[sl.bias]) for shape, sl in zip(shapes, slices)
        ]

    @classmethod
    def from_flat(cls, config, flat):
        return cls(config, np.array(flat, dtype=np.float64))

    @classmethod
    def zeros(cls, config):
        return cls(config, np.zeros(layer_slices(cls.layer_shapes(config))[1]))

    @classmethod
    def fan_in_uniform(cls, config, rng: RngStream):
        """Weights uniform in +-1/sqrt(fan_in), zero biases.

        Draws run layer by layer in layout order, so a given stream
        always produces the same buffer.
        """
        params = cls.zeros(config)
        for layer in params.layers:
            s = 1.0 / np.sqrt(layer.weight.shape[1])
            layer.weight[:] = rng.uniform(-s, s, layer.weight.shape)
        return params

    @property
    def num_params(self) -> int:
        return self.buffer.size

    def flatten(self) -> np.ndarray:
        return self.buffer.copy()

    def copy(self):
        return type(self).from_flat(self.config, self.buffer)


def relu_forward(layers: list[Affine], x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Pass x through affine layers, each followed by a ReLU.

    Returns (hs, zs): hs[j] is the input of layer j (hs[-1] the last
    output) and zs[j] the pre-activation of layer j.
    """
    hs = [x]
    zs = []
    for layer in layers:
        z = hs[-1] @ layer.weight.T
        z += layer.bias  # in place: rounds as `+` does, without a second array
        zs.append(z)
        hs.append(np.maximum(z, 0.0))
    return hs, zs


def output_errors(layers: list[Affine], zs: list[np.ndarray], dz: np.ndarray):
    """Reverse sweep: yield (j, dz_j) from the top layer down to layer 0.

    dz is the loss gradient with respect to the top layer's affine
    output. Below it every layer is a ReLU layer with pre-activation
    zs[j], so dz_j = (dz_{j+1} @ W_{j+1}) * (zs[j] > 0).
    """
    for j in range(len(layers) - 1, -1, -1):
        yield j, dz
        if j:
            dz = (dz @ layers[j].weight) * (zs[j - 1] > 0)


def accumulate_grads(
    layers: list[Affine], hs: list[np.ndarray], zs: list[np.ndarray], dz: np.ndarray, grads: list[Affine]
) -> None:
    """Add the parameter gradient of one reverse sweep into grads.

    grads are Affine views of a gradient buffer matching layers; hs[j]
    is the input of layer j. Layer j receives dz_j^T hs[j] and the
    column sums of dz_j.
    """
    for j, dz_j in output_errors(layers, zs, dz):
        grads[j].weight += dz_j.T @ hs[j]
        grads[j].bias += dz_j.sum(axis=0)


# -- the multi-exit backbone

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


def param_layout(config: BackboneConfig) -> tuple[tuple[LayerSlices, ...], tuple[LayerSlices, ...], int]:
    """Slices of each layer inside the flat parameter vector.

    Returns (block_slices, head_slices, total). Order: trunk blocks
    1..K, then heads 1..K; inside a layer the weight matrix (row-major,
    shape (out, in)) precedes the bias.
    """
    slices, total = layer_slices(BackboneParams.layer_shapes(config))
    return slices[: config.num_exits], slices[config.num_exits :], total


class BackboneParams(FlatParams):
    """Trunk blocks then exit heads, as views into one flat buffer."""

    def __init__(self, config: BackboneConfig, buffer: np.ndarray):
        super().__init__(config, buffer)
        self.blocks = self.layers[: config.num_exits]
        self.heads = self.layers[config.num_exits :]

    @staticmethod
    def layer_shapes(config: BackboneConfig) -> tuple[tuple[int, int], ...]:
        dims = (config.input_dim, *config.trunk_widths)
        blocks = tuple((dims[k + 1], dims[k]) for k in range(config.num_exits))
        return blocks + tuple((config.num_classes, w) for w in config.trunk_widths)


def init_params(config: BackboneConfig, rng: RngStream) -> BackboneParams:
    """Fan-in scaled uniform weights, zero biases; deterministic in rng.

    Draw order is fixed (blocks then heads) so a given stream always
    produces the same parameter vector.
    """
    return BackboneParams.fan_in_uniform(config, rng)


def _exit_path(layers: list, k: int) -> list:
    """The layers exit k's loss runs through: trunk blocks 0..k, then head k."""
    return [*layers[: k + 1], layers[(len(layers) // 2) + k]]


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


def _validate_batch(config: BackboneConfig, batch, labels) -> tuple[np.ndarray, np.ndarray]:
    """The float64 batch and int64 labels, checked as a `Dataset` plus the input width."""
    data = Dataset(batch, labels, config.num_classes)
    if data.dim != config.input_dim:
        raise ShapeError(f"batch shape {data.features.shape} does not match input_dim={config.input_dim}")
    return data.features, data.labels


@dataclass
class ForwardPass:
    """One forward pass at one parameter point, kept for backward sweeps.

    hs/zs are the trunk activations from `relu_forward` (hs[0] is the
    validated batch). Every gradient at these parameters on this batch
    reuses them, so the trunk runs once per parameter point.
    """

    params: BackboneParams
    outputs: ExitOutputs
    hs: list[np.ndarray]
    zs: list[np.ndarray]

    @cached_property
    def logit_errors(self) -> list[np.ndarray]:
        """Each exit's loss gradient wrt its logits, softmax - onehot, (B, C)."""
        labels = self.outputs.labels
        onehot = np.zeros((labels.shape[0], self.params.config.num_classes))
        onehot[np.arange(labels.shape[0]), labels] = 1.0
        return [self.outputs.probs[:, k] - onehot for k in range(self.outputs.num_exits)]


def forward_pass(params: BackboneParams, batch, labels) -> ForwardPass:
    """Evaluate every exit on a batch in one shared-trunk pass, keeping
    the trunk activations for gradients at the same parameters."""
    return _forward(params, *_validate_batch(params.config, batch, labels))


def _forward(params: BackboneParams, batch: np.ndarray, labels: np.ndarray) -> ForwardPass:
    """`forward_pass` on a batch and labels `_validate_batch` already returned."""
    config = params.config
    b, k_exits, c = batch.shape[0], config.num_exits, config.num_classes
    hs, zs = relu_forward(params.blocks, batch)
    logits = np.empty((b, k_exits, c))
    for k, head in enumerate(params.heads):
        logits[:, k, :] = hs[k + 1] @ head.weight.T + head.bias
    probs, lse = softmax_lse(logits.reshape(b * k_exits, c))
    probs = probs.reshape(b, k_exits, c)
    # (B, 1) rows broadcast against (1, K) exits: one fancy index per gather
    rows, exits = np.arange(b)[:, None], np.arange(k_exits)
    losses = lse.reshape(b, k_exits) - logits[rows, exits, labels[:, None]]
    predictions = probs.argmax(axis=2)
    confidences = probs[rows, exits, predictions]
    return ForwardPass(params, ExitOutputs(logits, probs, losses, confidences, predictions, labels), hs, zs)


def forward_all(params: BackboneParams, batch, labels) -> ExitOutputs:
    """Evaluate every exit on a batch, keeping no trunk activations.

    A batch of more than FORWARD_BLOCK_ROWS rows runs as ceil(n / FORWARD_BLOCK_ROWS)
    near-equal row blocks whose outputs are concatenated, so the
    activations of one block stay cache-sized and are freed before the
    next. The outputs are bitwise those of one whole-batch pass. A
    matmul over a few rows may take another BLAS kernel and round
    differently, so the blocks are near-equal: each holds more than
    FORWARD_BLOCK_ROWS / 2 rows, never a sliver left over.
    """
    batch, labels = _validate_batch(params.config, batch, labels)
    blocks = -(-batch.shape[0] // FORWARD_BLOCK_ROWS)
    if blocks <= 1:
        return _forward(params, batch, labels).outputs
    parts = [
        _forward(params, x, y).outputs
        for x, y in zip(np.array_split(batch, blocks), np.array_split(labels, blocks))
    ]
    return ExitOutputs(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(ExitOutputs)))


def per_sample_grads(params: BackboneParams, batch, labels) -> np.ndarray:
    """Gradient of every per-sample per-exit loss, dense (B, K, P).

    Row (i, k) is d loss_i^(k) / d theta over the full flat layout.
    Entries for trunk blocks deeper than k and for heads other than k
    are exactly zero (exit k's loss never touches them).
    """
    fp = forward_pass(params, batch, labels)
    b = fp.outputs.batch_size
    block_sl, head_sl, total = param_layout(params.config)
    out = np.zeros((b, params.config.num_exits, total))
    for k, dlog in enumerate(fp.logit_errors):
        path = _exit_path([*block_sl, *head_sl], k)
        for j, dz in output_errors(_exit_path(params.layers, k), fp.zs, dlog):
            out[:, k, path[j].weight] = np.einsum("bo,bi->boi", dz, fp.hs[j]).reshape(b, -1)
            out[:, k, path[j].bias] = dz
    return out


def batch_weighted_grad(fp: ForwardPass, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of sum_{i,k} coeffs[i,k] * loss_i^(k) at the pass's params, flat (P,).

    Same math as contracting `per_sample_grads` with coeffs, but the
    coefficients are folded into the logit error before the backward
    sweep, so the (B, K, P) tensor is never built.
    """
    params, dlogs = fp.params, fp.logit_errors
    coeffs = np.asarray(coeffs, dtype=np.float64)
    expected = (fp.outputs.batch_size, len(dlogs))
    if coeffs.shape != expected:
        raise ShapeError(f"coeffs shape {coeffs.shape}, expected {expected}")
    grad = BackboneParams.zeros(params.config)
    for k, dlog in enumerate(dlogs):
        accumulate_grads(
            _exit_path(params.layers, k), fp.hs, fp.zs, coeffs[:, k : k + 1] * dlog, _exit_path(grad.layers, k)
        )
    return grad.buffer


def per_sample_grad_dots(fp: ForwardPass, vec: np.ndarray) -> np.ndarray:
    """Inner products <vec, d loss_i^(k) / d theta> at the pass's params, shape (B, K).

    Same numbers as contracting `per_sample_grads` with vec, but no
    gradient row is built: the gradient of a layer with input h and
    output error dz is the outer product dz h^T (plus dz for the bias),
    so its inner product with vec's slice (V_W, v_b) is
    dz . (h @ V_W.T + v_b). Each layer input is projected onto vec once
    and shared by every exit whose backward sweep passes through it.
    """
    hs, dlogs = fp.hs, fp.logit_errors
    v = BackboneParams(fp.params.config, np.asarray(vec, dtype=np.float64))
    proj = [hs[j] @ layer.weight.T + layer.bias for j, layer in enumerate(v.blocks)]
    out = np.empty((fp.outputs.batch_size, len(dlogs)))
    for k, dlog in enumerate(dlogs):
        terms = [*proj[: k + 1], hs[k + 1] @ v.heads[k].weight.T + v.heads[k].bias]
        path = _exit_path(fp.params.layers, k)
        out[:, k] = sum(np.einsum("bo,bo->b", dz, terms[j]) for j, dz in output_errors(path, fp.zs, dlog))
    return out


def grad_weighted_loss(psg: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Flat gradient of (1/B) * sum w[i,k] * loss_i^(k) from stored per-sample grads."""
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
    theta = params.buffer
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match parameter count {theta.shape}")
    require_finite(grad, "grad")
    g = grad + weight_decay * theta if weight_decay != 0.0 else grad
    v = None
    if momentum != 0.0:
        v = momentum * velocity + g if velocity is not None else g.copy()
        g = v
    return BackboneParams(params.config, theta - lr * g), v


def pseudo_step(
    params: BackboneParams, psg: np.ndarray, weights: np.ndarray, alpha: float
) -> BackboneParams:
    """Momentum-free lookahead step against the weighted training loss.

    theta_hat = theta - alpha * grad_weighted_loss(psg, weights). Kept
    plain (no momentum, no decay) so theta_hat is an affine function of
    the weight matrix, which makes the analytic weight gradient exact.
    """
    return BackboneParams(params.config, params.buffer - alpha * grad_weighted_loss(psg, weights))


def count_mul_adds(config: BackboneConfig) -> np.ndarray:
    """Per-exit inference cost in multiply-accumulate operations.

    Exit k pays for trunk blocks 1..k plus its own head; an affine layer
    costs in_dim * out_dim per sample. Returns int64 (K,).
    """
    shapes = BackboneParams.layer_shapes(config)
    costs = [sum(o * i for o, i in _exit_path(shapes, k)) for k in range(config.num_exits)]
    return np.array(costs, dtype=np.int64)
