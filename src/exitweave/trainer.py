"""Training loops: meta-learned sample weighting plus ablation variants.

Every variant trains through one `substep`: a forward pass at the current
backbone over the train side gives the losses, a (B, K) coefficient
matrix c is chosen, and one coefficient-folded backward sweep over all
exits on that same pass gives the gradient of sum c[i,k] * loss_i^(k) for an
SGD(momentum, weight decay) step. The variants differ only in c:

  baseline            1/n, one substep on the full batch;
  fixed               the configured per-exit weight row exit_weights / n;
  selection           the allocation mask (1/|subset_k| on allocated cells);
  learned, whole_meta,
  frozen_wpn          the weight network's weight matrix w / n
                      (`wpn_weights` of the train losses).

The other variants split each mini-batch into two halves that swap
train/meta roles, so every sample serves both sides per iteration. For
the learned variants, on iterations where t % interval == 0 (never for
"frozen_wpn"), a meta step (`_meta_step`) runs first. `meta_chain` takes
a lookahead (a momentum-free pseudo step from the same train pass) and
evaluates the pseudo backbone on the meta half; a budget-driven greedy
allocation assigns each meta sample to one exit by confidence, and the
meta objective averages each exit's loss over its allocated subset
("whole_meta": over the whole meta half). It returns the exact gradient
wrt w: the pseudo parameters are affine in w, so d(meta)/dw[i,k] is
-(alpha/n) times the inner product of the meta gradient with the train
half's per-sample gradient g[i,k], taken layer by layer on the train
pass, so no per-sample gradient is ever stored. The weight network's
backward pass turns it into an Adam step, and `substep` recomputes w
with the updated network before the real step. The trunk thus runs once
per parameter point. Each side's record fragment holds only the fields
its variant fills; `train_step` checks the mini-batch once, before
any substep, merges the sides into one iteration record and keeps the
first scatter-budget (loss, weight, claimed) points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .backbone import (
    BackboneConfig,
    BackboneParams,
    ExitOutputs,
    ForwardPass,
    _forward_pass,
    _validate_batch,
    batch_weighted_grad,
    forward_all,
    init_params,
    per_sample_grad_dots,
    require_fit,
    sgd_step,
)
from .datahub import Dataset, make_batches
from .errors import CompatibilityError, ConfigError, ExitweaveError, NumericError, TrainingError
from .evaluate import score_anytime, score_sweep
from .exitpolicy import AllocationResult, allocate_meta
from .numkit import RngStream, require_finite
from .serial import convert_fields
from .wpn import (
    AdamState,
    WpnConfig,
    WpnParams,
    WpnPass,
    adam_step,
    init_wpn,
    wpn_backward,
    wpn_weights,
)

VARIANT_NAMES = (
    "learned",
    "baseline",
    "fixed",
    "selection",
    "frozen_wpn",
    "whole_meta",
)

LR_SCHEDULES = ("constant", "cosine")

# Variants that carry a weight prediction network.
_WPN_VARIANTS = ("learned", "whole_meta", "frozen_wpn")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    alpha is the backbone learning rate (also the pseudo-step size),
    beta the Adam rate for the weight network, interval the WPN update
    period in iterations, q the budget knob used for meta allocation.
    batch_size must be even because every batch is split into two
    halves that exchange train and meta roles. frozen_wpn_path (variant
    frozen_wpn only) names the run checkpoint whose weight network the run
    applies; exit_weights (fixed only) is the per-exit weight row, mean 1.
    scatter_cap > 0 logs up to that many weight scatter points per epoch.
    """

    epochs: int
    batch_size: int
    alpha: float
    variant: str = "learned"
    beta: float = 1e-4
    interval: int = 1
    q: float = 0.75
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_schedule: str = "cosine"
    seed: int = 0
    frozen_wpn_path: str | None = None
    exit_weights: tuple[float, ...] | None = None
    scatter_cap: int = 0

    def __post_init__(self) -> None:
        convert_fields(self)
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):  # NaN fails too
            raise ConfigError(f"alpha and beta must be positive and finite, got {self.alpha} and {self.beta}")
        if self.interval < 1:
            raise ConfigError(f"interval must be >= 1, got {self.interval}")
        if not 0 < self.q < math.inf:
            raise ConfigError(f"q must be positive and finite, got {self.q}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {LR_SCHEDULES}, got {self.lr_schedule!r}")
        if self.variant not in VARIANT_NAMES:
            raise ConfigError(f"variant must be one of {VARIANT_NAMES}, got {self.variant!r}")
        for variant, name in (("frozen_wpn", "frozen_wpn_path"), ("fixed", "exit_weights")):
            if (self.variant == variant) != (getattr(self, name) not in (None, "")):  # "" is missing
                raise ConfigError(f"variant {variant!r} requires {name}" if self.variant == variant
                                  else f"{name} applies only to variant {variant!r}, not {self.variant!r}")
        row = self.exit_weights
        if row is not None and not (row and abs(sum(row) / len(row) - 1.0) <= 1e-12):  # NaN and inf fail too
            raise ConfigError(f"exit_weights must be finite with mean 1 (within 1e-12), got {list(row)}")
        if self.scatter_cap < 0:
            raise ConfigError(f"scatter_cap must be >= 0, got {self.scatter_cap}")
        if self.seed < 0:  # PCG64 takes no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainState:
    """Everything that evolves across iterations.

    The steps update the backbone, the weight network, the velocity and
    the Adam moments in place, so each is one buffer for the whole run.
    The state also owns the run's work buffers, allocated once at first
    read (a state that is only evaluated holds none) and never saved:
    `grad`, which a substep's lookahead, meta and real-step gradients
    each write and consume in turn, `pseudo`, the meta steps' lookahead
    parameters, and `wpn_grad` for the weight network's meta steps:
    the only such buffers (`gradcheck` audits through a state of its own).
    """

    backbone: BackboneParams
    wpn: WpnParams | None
    velocity: np.ndarray | None
    adam: AdamState | None
    iteration: int = 0

    @cached_property
    def grad(self) -> BackboneParams:
        return BackboneParams.zeros(self.backbone.config)

    @cached_property
    def pseudo(self) -> BackboneParams:
        return BackboneParams.zeros(self.backbone.config)

    @cached_property
    def wpn_grad(self) -> WpnParams:
        return WpnParams.zeros(self.wpn.config)


@dataclass
class History:
    """Per-iteration and per-epoch training records (plain JSON-able dicts)."""

    iterations: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Learning rate for one epoch: constant, or half-cosine decay to 0."""
    if config.lr_schedule == "constant" or config.epochs <= 1:
        return config.alpha
    return config.alpha * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))


def split_batch(features: np.ndarray, labels: np.ndarray):
    """Split a batch into two equal halves (first half, second half)."""
    n = features.shape[0]
    if n % 2 != 0 or n < 2:
        raise ConfigError(f"batch of size {n} cannot be split into equal halves")
    h = n // 2
    return (features[:h], labels[:h]), (features[h:], labels[h:])


def meta_objective(outputs: ExitOutputs, allocation: AllocationResult | None = None) -> tuple[float, np.ndarray]:
    """Allocated meta loss and its coefficient mask.

    Each exit contributes the mean loss over its allocated subset;
    exits with empty subsets contribute nothing. With no allocation
    (the "whole_meta" ablation) every exit averages over the entire
    meta half. The mask holds 1/|subset_k| at allocated (sample, exit)
    cells and 0 elsewhere, so sum(mask * losses) reproduces the value
    and the mask doubles as the coefficient matrix of the objective's gradient.
    """
    b, k_exits = outputs.losses.shape
    if allocation is None:
        mask = np.full((b, k_exits), 1.0 / b)
    else:
        mask = np.zeros((b, k_exits))
        for k, subset in enumerate(allocation.subsets):
            if subset.size:
                mask[subset, k] = 1.0 / subset.size
    return float(np.add.reduce(mask * outputs.losses, axis=None)), mask


def lookahead(train_pass: ForwardPass, weights: np.ndarray, alpha: float,
              out: BackboneParams, pseudo: BackboneParams) -> BackboneParams:
    """Momentum-free pseudo step from the train pass's params against the
    w-weighted train-half loss: theta_hat = theta - (alpha/n) * sum w[i,k] g[i,k].
    Kept plain (no momentum, no decay) so theta_hat is affine in the weight
    matrix, which makes the analytic weight gradient in `meta_chain` exact.
    Returns theta_hat as pseudo, whose buffer is overwritten, and leaves
    the pass's untouched; the gradient goes into out (see
    `batch_weighted_grad`). A non-finite gradient raises NumericError
    before pseudo is written.
    """
    grad = require_finite(batch_weighted_grad(train_pass, weights / train_pass.outputs.batch_size, out), "grad")
    np.multiply(alpha, grad, out=pseudo.buffer)
    np.subtract(train_pass.params.buffer, pseudo.buffer, out=pseudo.buffer)
    return pseudo


def meta_chain(train_pass: ForwardPass, weights: np.ndarray, alpha: float,
               meta_x: np.ndarray, meta_y: np.ndarray, q: float, whole_meta: bool = False,
               *, out: BackboneParams, pseudo: BackboneParams):
    """Analytic gradient of the meta objective wrt the weight matrix.

    Takes the lookahead of the train pass under weights, then makes one
    pass at those pseudo params that serves both the allocation and the
    meta gradient. The meta half is a checked batch, float64 rows and
    int64 labels in range as `forward_pass` checks them: the pass does
    not check it again. Returns (dl_dw, meta_value, allocation, mask,
    meta_outputs); allocation is None for whole_meta. The allocation
    (and hence the mask) is treated as constant: it is a discrete
    selection, so the objective's dependence on parameters flows only
    through the allocated losses. The lookahead and meta gradients are
    written in turn into out, each consumed before the next, and the
    lookahead parameters into pseudo (see `lookahead`).
    """
    meta_pass = _forward_pass(lookahead(train_pass, weights, alpha, out, pseudo), meta_x, meta_y)
    outs = meta_pass.outputs
    alloc = None if whole_meta else allocate_meta(outs.confidences, q)
    value, mask = meta_objective(outs, alloc)
    batch_weighted_grad(meta_pass, mask, out)
    dl_dw = -(alpha / train_pass.outputs.batch_size) * per_sample_grad_dots(train_pass, out)
    return dl_dw, value, alloc, mask, outs


def _meta_step(state: TrainState, train_pass: ForwardPass, wpn_pass: WpnPass, meta,
               config: TrainConfig, alpha_t: float, log_scatter: bool) -> dict:
    """One Adam step of the weight network from dL/dw at the train side's
    weights (wpn_pass: their `wpn_weights` pass); steps state.wpn and
    state.adam in place, with the gradients in the state's buffers.
    Returns the record fields it fills: meta_loss and, except for
    whole_meta, alloc_sizes and (with log_scatter) scatter.
    """
    dl_dw, meta_value, alloc, _, meta_outs = meta_chain(
        train_pass, wpn_pass.weights, alpha_t, *meta, config.q,
        whole_meta=config.variant == "whole_meta", out=state.grad, pseudo=state.pseudo,
    )
    adam_step(state.wpn.buffer, wpn_backward(wpn_pass, dl_dw, state.wpn_grad), state.adam, config.beta)
    fields = {"meta_loss": meta_value}
    if alloc is not None:
        fields["alloc_sizes"] = [int(s) for s in alloc.sizes]
        if log_scatter:
            # (loss, weight, claimed): the fresh network's weight per meta sample, and did exit 1 claim it?
            m_weights = wpn_weights(state.wpn, meta_outs.losses).weights
            claimed = np.zeros(meta_outs.batch_size, dtype=bool)
            claimed[alloc.subsets[0]] = True
            fields["scatter"] = [[float(loss), float(w), int(c)]
                                 for loss, w, c in zip(meta_outs.losses[:, 0], m_weights[:, 0], claimed)]
    return fields


def substep(state: TrainState, train, meta, config: TrainConfig, alpha_t: float, log_scatter: bool = False) -> dict:
    """One backbone update on the train side; mutates state, returns a record fragment.

    train and meta are (features, labels) pairs of a batch `train_step`
    checked; meta is the other half of the batch (None for baseline).
    Neither is checked again. One pass at the current backbone
    gives the losses, the coefficient matrix and the gradient; the
    variant only chooses the coefficients. The fragment holds loss_sum
    plus only the fields the variant fills. Non-finite training losses
    raise NumericError, as any overflow does. Every gradient goes into the
    state's buffers, and the steps update the state's networks in place.
    """
    train_pass = _forward_pass(state.backbone, *train)
    outs = train_pass.outputs
    require_finite(outs.losses, "training loss")
    n = outs.batch_size
    frag = {"loss_sum": np.add.reduce(outs.losses, axis=0)}
    if config.variant == "baseline":
        coeffs = np.full(outs.losses.shape, 1.0 / n)
    elif config.variant == "selection":
        alloc = allocate_meta(outs.confidences, config.q)
        _, coeffs = meta_objective(outs, alloc)
        frag["alloc_sizes"] = [int(s) for s in alloc.sizes]
    else:
        if config.variant not in _WPN_VARIANTS:
            weights = np.broadcast_to(np.asarray(config.exit_weights), outs.losses.shape)
        else:
            wpn_pass = wpn_weights(state.wpn, outs.losses)
            if config.variant != "frozen_wpn" and state.iteration % config.interval == 0:
                frag.update(_meta_step(state, train_pass, wpn_pass, meta, config, alpha_t, log_scatter))
                wpn_pass = wpn_weights(state.wpn, outs.losses)
            weights = wpn_pass.weights
        frag["weights"] = weights
        coeffs = weights / n
    state.backbone, state.velocity = sgd_step(
        state.backbone, batch_weighted_grad(train_pass, coeffs, state.grad), alpha_t,
        config.momentum, config.weight_decay, state.velocity,
    )
    return frag


def train_step(
    state: TrainState,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    config: TrainConfig,
    alpha_t: float,
    scatter_budget: int = 0,
) -> dict:
    """One mini-batch update; mutates state and returns an iteration record.

    The batch is checked once, as `forward_pass` checks a batch, before
    any substep. Baseline takes one substep on the full batch; the other
    variants take one per half, each half serving once as the train side
    and once as the other's meta side. The record keeps the first
    scatter_budget scatter points of the two sides, in order. The
    iteration counter advances once per mini-batch. A substep's
    NumericError becomes TrainingError: the run diverged.
    """
    t = state.iteration
    batch_x, batch_y = _validate_batch(state.backbone.config, batch_x, batch_y)
    if config.variant == "baseline":
        sides = [((batch_x, batch_y), None)]
    else:
        first, second = split_batch(batch_x, batch_y)
        sides = [(first, second), (second, first)]
    try:
        frags = [substep(state, train, meta, config, alpha_t, scatter_budget > 0) for train, meta in sides]
    except NumericError as exc:  # exc names the array the overflow reached
        raise TrainingError(f"{exc} at iteration {t}; run diverged") from exc
    state.iteration = t + 1
    # summed per side, then in total: the record's bytes depend on the order
    loss = sum(f["loss_sum"] for f in frags) / batch_x.shape[0]
    record: dict = {
        "iteration": t,
        "lr": alpha_t,
        "train_loss_per_exit": [float(v) for v in loss],
    }
    weight_mats, allocs, metas = ([f[key] for f in frags if key in f]
                                  for key in ("weights", "alloc_sizes", "meta_loss"))
    stacked = np.concatenate(weight_mats, axis=0) if weight_mats else None
    for stat in ("mean", "min", "max"):
        record[f"weight_{stat}"] = None if stacked is None else [float(v) for v in getattr(stacked, stat)(axis=0)]
    record["allocation_sizes"] = allocs or None
    record["meta_loss"] = float(np.mean(metas)) if metas else None
    scatter = [p for f in frags for p in f.get("scatter", [])][:scatter_budget]
    if scatter:
        record["weight_scatter"] = scatter
    return record


def _eval_epoch(state: TrainState, val_set: Dataset, config: TrainConfig, epoch: int, alpha_t: float) -> dict:
    """The epoch's validation record: anytime accuracy, and the split scored
    at config.q with thresholds calibrated on the split itself."""
    outs = forward_all(state.backbone, val_set.features, val_set.labels)
    row = score_sweep(state.backbone.config, outs, outs, [config.q])[0]
    return {
        "epoch": epoch,
        "lr": alpha_t,
        "val_anytime_accuracy": [float(a) for a in score_anytime(outs)],
        "val_dynamic_accuracy": row["accuracy"],
        "val_exit_counts": row["exit_counts"],
        "val_thresholds": row["thresholds"],
    }


def run_training(
    config: TrainConfig,
    backbone_config: BackboneConfig,
    wpn_config: WpnConfig,
    train_set: Dataset,
    val_set: Dataset,
) -> tuple[TrainState, History]:
    """Train a backbone from scratch under the configured variant.

    Initialization, shuffling and everything downstream draw from child
    streams of config.seed, so a (config, data) pair fully determines
    the result. Returns the final state plus the full history; with
    epochs == 0 the initial state and an empty history come back.
    """
    if config.variant == "frozen_wpn":
        from .checkpoint import load_run_checkpoint

        try:
            frozen = load_run_checkpoint(config.frozen_wpn_path)[0].wpn
            if frozen is None:
                raise CompatibilityError(f"{config.frozen_wpn_path}: run checkpoint carries no weight network")
        except ExitweaveError as exc:  # the path names the file; the key names its source
            raise type(exc)(f"train.frozen_wpn_path: {exc}") from exc
        wpn_config = frozen.config
    exits = backbone_config.num_exits
    if exits < 2:
        raise ConfigError(f"backbone.trunk_widths: training requires at least 2 exits, got {exits}")
    if wpn_config.num_exits != exits:
        key = "train.frozen_wpn_path" if config.variant == "frozen_wpn" else "wpn.num_exits"
        raise ConfigError(f"{key}: weight network is sized for {wpn_config.num_exits} exits, backbone has {exits}")
    if config.exit_weights is not None and len(config.exit_weights) != exits:
        raise ConfigError(f"train.exit_weights has {len(config.exit_weights)} entries for {exits} exits")
    for ds, name in ((train_set, "train"), (val_set, "val")):
        require_fit(backbone_config, ds, f"{name} set", ConfigError)
    root = RngStream(config.seed)
    backbone = init_params(backbone_config, root.child("init-backbone"))
    if config.variant in _WPN_VARIANTS:
        wpn_params = frozen if config.variant == "frozen_wpn" else init_wpn(wpn_config, root.child("init-wpn"))
        adam = AdamState.zeros(wpn_params.num_params)
    else:
        wpn_params, adam = None, None
    state = TrainState(backbone=backbone, wpn=wpn_params, velocity=None, adam=adam)
    history = History()
    for epoch in range(config.epochs):
        alpha_t = lr_at(config, epoch)
        budget = config.scatter_cap
        try:
            batches = make_batches(train_set, config.batch_size, epoch, config.seed, drop_last=True)
        except ConfigError as exc:  # make_batches owns the bound; the key is train's
            raise ConfigError(f"train.{exc}") from exc
        for idx in batches:
            record = train_step(state, train_set.features[idx], train_set.labels[idx], config, alpha_t, budget)
            budget -= len(record.get("weight_scatter", []))
            history.iterations.append(record)
        history.epochs.append(_eval_epoch(state, val_set, config, epoch, alpha_t))
    return state, history
