"""Multi-exit MLP classifier with nested parameter sharing.

The network is a chain of K ReLU trunk blocks. Exit k attaches a linear
classifier head to the output of block k, so sub-network k consists of
trunk blocks 1..k plus head k: shallower sub-networks share every trunk
parameter with deeper ones. All K exits are evaluated in one forward
pass, and the training objective sums per-exit cross-entropy terms.
`BackboneConfig` reads its fields by `serial.convert_fields`, as a
config file is read, and checks only their ranges.

Parameters live in one flat float64 buffer (all trunk blocks in order,
then all heads in order; weight before bias within a layer), reached
through per-layer `Affine` views (`FlatParams`). The weight network
keeps its parameters the same way, as ReLU `blocks` plus linear `heads`
(a one-exit trunk): the layout rule, the dense ReLU forward pass
(`relu_forward`, whose matmul, bias and ReLU run in place in one array
per layer, new or the caller's), the head pass (`head_forward`, each
head as soon as its block's output arrives), the pass record
(`LayerPass`) and the reverse sweep are defined once, here. A pass
keeps only each layer's output: the reverse sweep reads the ReLU mask
from it, since max(z, 0) > 0 exactly where z > 0.
The layout of a shape tuple is computed once (`layer_slices`) and
shared, immutable, by every parameter, gradient and lookahead buffer of
those shapes; each buffer builds only its own views. Gradients share the
layout, so a backward pass writes the caller's buffer (`out`) through
the same views; the heads come last, so the writer normalizes their
signed zeros in one call over that region.
`sgd_step` updates the parameter buffer and the velocity in place, so a
training run keeps one parameter buffer per network from start to end.

Gradients here are hand-derived reverse-mode passes, not autodiff. They
start from a `ForwardPass` (`forward_pass`): the exit outputs, the
(K, B, C) logit errors and the trunk activations at one parameter
point, so every gradient at that point reuses one trunk pass. One pass
core (`_forward`) serves both forward functions: the trunk with each
head right after its block, then one `softmax_lse` pass over all exits,
in place over the logits, with the confidence read at the prediction.
It writes arrays its caller owns. `forward_all` returns only what
scoring reads, the (B, K) `ExitOutputs`: it runs a batch (an evaluation
split) through the core as cache-sized row blocks, on two threads at
most, each with one workspace for the call (two alternating activation
buffers and one block's logits), and each block writes its rows of the
outputs in place. The outputs are bitwise those of one whole-batch pass,
whatever the number of threads. Both check their inputs once, as
a `datahub.Dataset`, the one check of a dataset's contents, that fits
the model (`require_fit`). `_forward_pass` is `forward_pass` on a batch
already checked: training checks each mini-batch once
(`trainer.train_step`) and runs it on the halves.
`batch_weighted_grad` folds a coefficient matrix into the logit errors
for the "weighted sum of losses" case, and `per_sample_grad_dots`
returns the inner products <vec, d loss_i^(k)/d theta> the meta-learning
chain needs, layer by layer (dz_i . (h_i @ V_W.T + v_b) for a layer with
input h_i and error dz_i), without forming any per-sample gradient.
Training uses only these two and `wpn.wpn_backward`, all through one
top-down sweep whose stack at block j carries every head at or above it
(`_block_errors`), bitwise one sweep per head in O(blocks) numpy calls.
`per_sample_grads` builds the dense (B, K, P) per-sample gradient
tensor by its own per-exit chain rule; it, `grad_weighted_loss`,
`pseudo_step` and `param_layout` are a dense reference only the tests
and the benchmark tracer call (`gradcheck` audits the sweep above).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .datahub import Dataset
from .errors import ConfigError, ShapeError
from .numkit import RngStream, require_finite, softmax_lse
from .serial import convert_fields

# forward_all splits larger batches into row blocks of at most this many rows
FORWARD_BLOCK_ROWS = 1024
# and runs them on at most this many threads, the caller's among them: two
# workspaces (two activation buffers and one block's logits each) fit in the
# memory of one block's whole trunk, logits and probabilities
FORWARD_WORKERS = min(2, os.cpu_count() or 1)


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
    constructor wraps the float64 buffer it is given; `from_flat` copies first.
    Subclasses define `layer_shapes(config)`, the (out, in) of each
    layer as a tuple cached per config, which keys `layer_slices`, and
    `num_heads(config)`: the last that many layers are the linear
    `heads`, the rest the ReLU `blocks`. The heads come last in the
    buffer too, so `head_region` is one view of every head's weight and
    bias.
    """

    def __init__(self, config, buffer: np.ndarray):
        shapes = self.layer_shapes(config)
        slices, total = layer_slices(shapes)
        if buffer.dtype != np.float64:
            raise ShapeError(f"parameter buffer has dtype {buffer.dtype}, expected float64")
        if buffer.shape != (total,):
            raise ShapeError(f"parameter vector has shape {buffer.shape}, layout implies {total} entries")
        self.config = config
        self.buffer = buffer
        self.layers = [
            Affine(buffer[sl.weight].reshape(shape), buffer[sl.bias]) for shape, sl in zip(shapes, slices)
        ]
        split = len(shapes) - self.num_heads(config)
        self.blocks, self.heads = self.layers[:split], self.layers[split:]
        self.head_region = buffer[slices[split].weight.start :]

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


def relu_forward(layers: list[Affine], x: np.ndarray, outs: list[np.ndarray] | None = None) -> Iterator[np.ndarray]:
    """Pass x through affine layers, each followed by a ReLU.

    Yields hs: hs[j] is the input of layer j (hs[0] is x) and hs[-1]
    the last output. Layer j's matmul writes outs[j], a C-contiguous
    (rows, out) array, or a new array when outs is None; its bias and
    ReLU run in place there. A layer runs only when its output is asked
    for, so a caller may read each output before the next layer runs,
    and outs may repeat a buffer: two that alternate hold every output
    a head reads right after its block. `list(relu_forward(...))` keeps
    them all.
    """
    h = x
    yield h
    for j, layer in enumerate(layers):
        h = np.matmul(h, layer.weight.T, out=None if outs is None else outs[j])
        h += layer.bias  # rounds as `+` does
        yield np.maximum(h, 0.0, out=h)


@dataclass
class LayerPass:
    """One pass of a blocks-and-heads network at one parameter point, kept
    for its backward sweep.

    hs are the blocks' activations from `relu_forward` (hs[0] is the
    network's input); the sweep reads each block's ReLU mask from them.
    """

    params: FlatParams
    hs: list[np.ndarray]

    @cached_property
    def masks(self) -> list[np.ndarray]:
        """masks[j] = hs[j + 1] > 0: where block j's rectifier passes an error."""
        return [h > 0 for h in self.hs[1:]]


# -- the multi-exit backbone

@dataclass(frozen=True)
class BackboneConfig:
    """Architecture of a K-exit MLP: input width, trunk widths, class count."""

    input_dim: int
    trunk_widths: tuple[int, ...]
    num_classes: int

    def __post_init__(self) -> None:
        convert_fields(self)
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

    @staticmethod
    def num_heads(config: BackboneConfig) -> int:
        return config.num_exits

    @staticmethod
    @cache
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


@dataclass
class ExitOutputs:
    """What the K exits say about a batch: all that scoring reads.

    losses/confidences: (B, K); predictions: (B, K) ints. confidence =
    max softmax probability. The label vector rides along so downstream
    inference can score correctness.
    """

    losses: np.ndarray
    confidences: np.ndarray
    predictions: np.ndarray
    labels: np.ndarray

    @classmethod
    def empty(cls, labels: np.ndarray, num_exits: int) -> "ExitOutputs":
        """Unwritten (B, K) outputs for a batch with these labels."""
        shape = (labels.shape[0], num_exits)
        return cls(np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.intp), labels)

    @property
    def batch_size(self) -> int:
        return self.losses.shape[0]

    @property
    def num_exits(self) -> int:
        return self.losses.shape[1]


def require_fit(config: BackboneConfig, data: Dataset, where: str, error=ShapeError) -> None:
    """Raise `error` unless data has config's input width and class count; where names the data."""
    if data.dim != config.input_dim or data.num_classes != config.num_classes:
        raise error(
            f"{where} has feature dim={data.dim}, classes={data.num_classes}; "
            f"the model expects dim={config.input_dim}, classes={config.num_classes}"
        )


def _validate_batch(config: BackboneConfig, batch, labels) -> tuple[np.ndarray, np.ndarray]:
    """The float64 batch and int64 labels, checked as a `Dataset` that fits config."""
    data = Dataset(batch, labels, config.num_classes)
    require_fit(config, data, "batch")
    return data.features, data.labels


@dataclass
class ForwardPass(LayerPass):
    """One forward pass at one parameter point, kept for backward sweeps.

    logit_errors: (K, B, C), softmax - onehot, each exit's loss gradient
    wrt its logits. hs are the trunk activations (hs[0] is the validated
    batch). Every gradient at these parameters on this batch reuses them
    and the masks cached from them, so the trunk runs once per point.
    params is the live parameter object, not a copy: once a step updates
    it in place, the pass no longer describes it, so take every gradient
    of a point before stepping.
    """

    params: BackboneParams
    outputs: ExitOutputs
    logit_errors: np.ndarray


def head_forward(params: FlatParams, hs: Iterable[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Every head's output, (heads, B, out): head k reads hs[f + k + 1],
    f = len(blocks) - len(heads). hs may be a `relu_forward` generator:
    each head runs as soon as its block's output arrives. Each head's
    matmul writes its own slot of out (a new array when out is None),
    and its bias is added in place (rounds as `+` does)."""
    heads = params.heads
    f = len(params.blocks) - len(heads)
    for j, h in enumerate(hs):
        if out is None:
            out = np.empty((len(heads), h.shape[0], heads[0].weight.shape[0]))
        if j > f:
            head = heads[j - f - 1]
            np.matmul(h, head.weight.T, out=out[j - f - 1])
            out[j - f - 1] += head.bias
    return out


def _forward(params: BackboneParams, batch: np.ndarray, out: ExitOutputs, acts: list[np.ndarray],
             logits: np.ndarray) -> None:
    """The one forward pass, on a validated batch: the trunk, each head
    right after its block, one `softmax_lse` pass over all exits and the
    confidence read at the prediction.

    Block j's output goes to acts[j] (`relu_forward`'s outs), the
    (K, B, C) logits to logits, where the softmax then overwrites them,
    and the scores to out, (B, K) arrays or views of them whose labels
    are the batch's.
    """
    head_forward(params, relu_forward(params.blocks, batch, acts), logits)
    k_exits, b, c = logits.shape
    # (K, 1) exits by (B,) rows, written through (K, B) views of the C-contiguous (B, K) outputs
    exits, rows = np.arange(k_exits)[:, None], np.arange(b)
    picked = logits[exits, rows, out.labels]  # read before the softmax overwrites the logits
    flat = logits.reshape(k_exits * b, c)
    _, lse = softmax_lse(flat, out=flat)
    np.subtract(lse.reshape(k_exits, b), picked, out=out.losses.T)
    logits.argmax(axis=2, out=out.predictions.T)
    out.confidences.T[...] = logits[exits, rows, out.predictions.T]


def _forward_pass(params: BackboneParams, batch: np.ndarray, labels: np.ndarray) -> ForwardPass:
    """`forward_pass` on a batch `_validate_batch` already checked. The
    probabilities turn into the logit errors in place."""
    config, b = params.config, labels.shape[0]
    acts = [np.empty((b, w)) for w in config.trunk_widths]
    errors = np.empty((config.num_exits, b, config.num_classes))
    outputs = ExitOutputs.empty(labels, config.num_exits)
    _forward(params, batch, outputs, acts, errors)
    errors[:, np.arange(b), labels] -= 1.0
    return ForwardPass(params, [batch, *acts], outputs, errors)


def forward_pass(params: BackboneParams, batch, labels) -> ForwardPass:
    """Evaluate every exit on a batch in one shared-trunk pass, keeping
    the logit errors and trunk activations for gradients at the same
    parameters."""
    return _forward_pass(params, *_validate_batch(params.config, batch, labels))


def forward_all(params: BackboneParams, batch, labels) -> ExitOutputs:
    """Evaluate every exit on a batch, keeping no probabilities or activations.

    The batch is validated once, then runs through `_forward` as
    ceil(n / FORWARD_BLOCK_ROWS) near-equal row blocks, each writing its
    rows of the (n, K) outputs in place, so no array grows with n times
    the class count. The outputs are bitwise those of one whole-batch
    `forward_pass`. A matmul over a few rows may take another BLAS
    kernel and round differently, so the blocks are split as
    np.array_split splits: each holds more than FORWARD_BLOCK_ROWS / 2
    rows, never a sliver left over.

    The blocks run on w = min(FORWARD_WORKERS, blocks) workers: the
    calling thread takes blocks 0, w, 2w, ... and helper threads,
    started and joined here, the others. numpy's matmuls release the
    interpreter lock, so two workers use two cores. Each worker owns
    one workspace for the whole call, allocated before any block runs:
    two activation buffers that its blocks' layers write in turn, and
    one (K, rows, C) buffer for the logits. A block is never split
    further, so the outputs do not depend on the number of workers.
    Once every worker has stopped, the error of the earliest block that
    failed is raised, the one a serial run raises.
    """
    batch, labels = _validate_batch(params.config, batch, labels)
    config, n = params.config, labels.shape[0]
    blocks = -(-n // FORWARD_BLOCK_ROWS)
    size, extra = divmod(n, blocks)
    edges = [j * size + min(j, extra) for j in range(blocks + 1)]  # np.array_split's partition
    rows, widths = edges[1], config.trunk_widths  # the first block is the largest
    k_exits, c = config.num_exits, config.num_classes
    workers = min(FORWARD_WORKERS, blocks)
    spaces = [([np.empty(rows * max(widths[p::2], default=0)) for p in (0, 1)], np.empty(k_exits * rows * c))
              for _ in range(workers)]  # per worker: the activation pair and the logits
    out = ExitOutputs.empty(labels, k_exits)
    failed = {}  # block -> the error it raised; each worker stops at its first

    def run(worker: int) -> None:
        buffers, logits = spaces[worker]
        for j in range(worker, blocks, workers):
            lo, hi = edges[j], edges[j + 1]
            r = hi - lo
            acts = [buffers[i % 2][: r * w].reshape(r, w) for i, w in enumerate(widths)]
            part = ExitOutputs(out.losses[lo:hi], out.confidences[lo:hi], out.predictions[lo:hi], labels[lo:hi])
            try:
                _forward(params, batch[lo:hi], part, acts, logits[: k_exits * r * c].reshape(k_exits, r, c))
            except Exception as error:  # raised in the calling thread, below
                failed[j] = error
                return

    helpers = [threading.Thread(target=run, args=(worker,)) for worker in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return out


def per_sample_grads(params: BackboneParams, batch, labels) -> np.ndarray:
    """Gradient of every per-sample per-exit loss, dense (B, K, P).

    Row (i, k) is d loss_i^(k) / d theta over the full flat layout.
    Entries for trunk blocks deeper than k and for heads other than k
    are exactly zero (exit k's loss never touches them).
    """
    fp = forward_pass(params, batch, labels)
    hs, b = fp.hs, fp.outputs.batch_size
    block_sl, head_sl, total = param_layout(params.config)
    out = np.zeros((b, params.config.num_exits, total))
    for k, dz in enumerate(fp.logit_errors):
        path = [*zip(params.blocks, block_sl[: k + 1]), (params.heads[k], head_sl[k])]
        for j in range(k + 1, -1, -1):
            layer, sl = path[j]
            out[:, k, sl.weight] = np.einsum("bo,bi->boi", dz, hs[j]).reshape(b, -1)
            out[:, k, sl.bias] = dz
            if j:
                dz = (dz @ layer.weight) * (hs[j] > 0)
    return out


def _block_errors(lp: LayerPass, tops: np.ndarray):
    """Yield (j, stack) from the top block down: one sweep that carries every head.

    Head k, with error tops[k] at its output, reads block f + k, f =
    len(blocks) - len(heads). stack[m] is head max(j - f, 0) + m's error
    at block j's output, masked by lp.masks[j]. numpy runs a 3-D matmul
    as one 2-D product per slice, so each head's rows get exactly the
    products and masks of a sweep of its own.
    """
    blocks, heads, masks = lp.params.blocks, lp.params.heads, lp.masks
    f = len(blocks) - len(heads)
    stack = None
    for j in range(len(blocks) - 1, -1, -1):
        below = np.empty((len(heads) - max(j - f, 0), *masks[j].shape))
        if j >= f:
            np.matmul(tops[j - f], heads[j - f].weight, out=below[0])
        if stack is not None:
            np.matmul(stack, blocks[j + 1].weight, out=below[int(j >= f) :])
        stack = np.multiply(below, masks[j], out=below)
        yield j, stack


def _tops_grad(lp: LayerPass, tops: np.ndarray, out: FlatParams) -> np.ndarray:
    """Flat gradient of a blocks-and-heads network at lp from its heads' output errors.

    Each layer's head terms are added in head order from 0.0, as one
    sweep per head into a zero buffer adds them (numpy sums a one-entry
    slice pairwise, so a width-1 layer that 8 or more heads reach may
    differ in a last bit). A head's one term is written in place and
    the 0.0 added once over the whole head region, which turns a -0.0
    sum into +0.0 as a zero buffer would. Every entry is written,
    through the views of out, a FlatParams of lp's layout, whose buffer
    is returned.
    """
    f = len(out.blocks) - len(out.heads)
    for k, head in enumerate(out.heads):
        np.matmul(tops[k].T, lp.hs[f + k + 1], out=head.weight)
        np.add.reduce(tops[k], axis=0, out=head.bias)
    np.add(0.0, out.head_region, out=out.head_region)
    for j, stack in _block_errors(lp, tops):
        block = out.blocks[j]
        np.add.reduce(np.matmul(stack.transpose(0, 2, 1), lp.hs[j]), axis=0, initial=0.0, out=block.weight)
        np.add.reduce(np.add.reduce(stack, axis=1), axis=0, initial=0.0, out=block.bias)
    return out.buffer


def batch_weighted_grad(fp: ForwardPass, coeffs: np.ndarray, out: BackboneParams) -> np.ndarray:
    """Gradient of sum_{i,k} coeffs[i,k] * loss_i^(k) at the pass's params, flat (P,).

    Same math as contracting `per_sample_grads` with coeffs, but the
    coefficients are folded into the logit errors before the backward
    sweep (`_tops_grad`), so the (B, K, P) tensor is never built. The
    gradient is written into out, a BackboneParams of the pass's config,
    and out.buffer is returned.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    expected = (fp.outputs.batch_size, len(fp.logit_errors))
    if coeffs.shape != expected:
        raise ShapeError(f"coeffs shape {coeffs.shape}, expected {expected}")
    return _tops_grad(fp, coeffs.T[:, :, None] * fp.logit_errors, out)


def per_sample_grad_dots(fp: ForwardPass, v: BackboneParams) -> np.ndarray:
    """Inner products <vec, d loss_i^(k) / d theta> at the pass's params, shape (B, K),
    for vec the buffer of v, a BackboneParams of the pass's config read through its views.

    Same numbers as contracting `per_sample_grads` with vec, but no
    gradient row is built: the gradient of a layer with input h and
    output error dz is the outer product dz h^T (plus dz for the bias),
    so its inner product with vec's slice (V_W, v_b) is
    dz . (h @ V_W.T + v_b). Each layer input is projected onto vec once
    and shared by every exit whose error reaches it in the one backward
    sweep; exit k adds its head term, then blocks k .. 0, from 0.0.
    """
    if v.config != fp.params.config:
        raise ShapeError(f"vector has the layout of {v.config}, the pass has {fp.params.config}")
    hs, dlogs = fp.hs, fp.logit_errors
    acc = np.add(0.0, np.einsum("kbo,kbo->kb", dlogs, head_forward(v, hs)))
    for j, stack in _block_errors(fp, dlogs):
        block = v.blocks[j]
        acc[j:] += np.einsum("mbo,bo->mb", stack, hs[j] @ block.weight.T + block.bias)
    return np.ascontiguousarray(acc.T)


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
    """One SGD step with optional momentum buffer, in place; L2 decay is
    folded into the gradient before the momentum update:

        g = grad + weight_decay * theta
        v = momentum * v_prev + g        (v_prev = 0 on first use)
        theta' = theta - lr * v          (theta - lr * g when momentum == 0)

    params.buffer and a given velocity are overwritten with theta' and
    v, and grad is left untouched. Returns (params, velocity): the same
    params object, and the velocity (a new buffer on first use; None
    when momentum is 0). A non-finite grad raises NumericError before
    anything is written.
    """
    theta = params.buffer
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match parameter count {theta.shape}")
    require_finite(grad, "grad")
    g = grad
    if weight_decay != 0.0:
        g = np.multiply(weight_decay, theta)
        np.add(grad, g, out=g)
    if momentum == 0.0:
        velocity = None
    elif velocity is None:
        velocity = g.copy() if g is grad else g
    else:
        np.multiply(momentum, velocity, out=velocity)
        velocity += g
    theta -= lr * (g if velocity is None else velocity)
    return params, velocity


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
    blocks = np.cumsum([o * i for o, i in shapes[: config.num_exits]], dtype=np.int64)
    return blocks + np.array([o * i for o, i in shapes[config.num_exits :]], dtype=np.int64)
