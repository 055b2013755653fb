"""Finite-difference audits of the analytic gradient chain.

Four suites compare hand-derived gradients against central differences
on a deliberately tiny instance:

  1. backbone_per_sample: every per-sample per-exit loss gradient,
  2. weight_gradient: d(meta objective)/d(weight matrix) through the
     pseudo step,
  3. wpn_backward: the weight network's parameter gradients for a fixed
     linear probe of the weight matrix,
  4. end_to_end: d(meta objective)/d(weight network parameters) through
     squash, normalization, pseudo step and allocated meta loss.

Every suite audits the route training runs, in one `TrainState`'s
buffers: suite 1 runs `batch_weighted_grad` under each (row, exit)
cell's one-hot coefficients, and suites 2 and 4 take their analytic
sides from `trainer.meta_chain` and `wpn_backward` and step `trainer.lookahead` for
their finite differences. The meta allocation is held fixed at the base
point in suites 2 and 4, as `meta_chain` chose it: it is a discrete
selection, constant under infinitesimal perturbation.
Relative errors are vector-norm based, so isolated zero crossings do
not blow up the score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import (
    BackboneConfig,
    BackboneParams,
    batch_weighted_grad,
    forward_all,
    forward_pass,
    init_params,
    layer_slices,
    relu_forward,
)
from .errors import ConfigError
from .numkit import RngStream
from .trainer import TrainConfig, TrainState, lookahead, meta_chain
from .wpn import WpnConfig, WpnParams, init_wpn, wpn_backward, wpn_weights

PARAM_CAP = 2000

# The instance `exitweave gradcheck` audits when no config names one.
DEFAULT_BACKBONE = BackboneConfig(3, (4, 3), 3)
DEFAULT_WPN = WpnConfig(2, hidden_width=8, hidden_depth=1, delta=0.6)


@dataclass
class SuiteResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """||a - f|| / max(||a||, ||f||); 0 when both vanish."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(fd, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(f))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - f) / denom)


def central_diff(f, x: np.ndarray, rel_step: float) -> np.ndarray:
    """Central differences of f at x, one entry of x at a time.

    Entry p moves by rel_step * max(1, |x[p]|) each way. The result has
    shape x.shape + the shape of f's value.
    """
    out = []
    for p in np.ndindex(x.shape):
        step = rel_step * max(1.0, abs(x[p]))
        up, dn = x.copy(), x.copy()
        up[p] += step
        dn[p] -= step
        out.append((f(up) - f(dn)) / (2.0 * step))
    return np.reshape(out, x.shape + np.shape(out[0]))


def fd_loss_grads(params: BackboneParams, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Central-difference per-sample per-exit gradients, (B, K, P)."""

    def losses(flat: np.ndarray) -> np.ndarray:
        return forward_all(BackboneParams.from_flat(params.config, flat), batch, labels).losses

    return np.moveaxis(central_diff(losses, params.flatten(), 1e-5), 0, -1)


_KINK_MARGIN = 1e-3
_ALPHA = 0.05  # the lookahead step size


def _min_preactivation(params: BackboneParams, batch: np.ndarray) -> float:
    """Smallest |z| over every rectifier input z = h @ W.T + b in the trunk."""
    hs = relu_forward(params.blocks, batch)
    return min(float(np.min(np.abs(h @ layer.weight.T + layer.bias))) for h, layer in zip(hs, params.blocks))


def _build_instance(backbone_cfg: BackboneConfig, wpn_cfg: WpnConfig, seed: int) -> tuple[TrainState, tuple, tuple]:
    """The state whose networks and buffers every suite uses, and a train and a meta batch, each (x, y)."""
    total = layer_slices(BackboneParams.layer_shapes(backbone_cfg))[1]
    if total > PARAM_CAP:
        raise ConfigError(
            f"gradcheck refuses configurations above {PARAM_CAP} backbone parameters "
            f"(got {total}); finite differences at that size are too slow to be useful"
        )
    root = RngStream(seed)
    backbone = init_params(backbone_cfg, root.child("init-backbone"))
    state = TrainState(backbone, init_wpn(wpn_cfg, root.child("init-wpn")), None, None)
    data = root.child("data")
    b = 6
    # central differences are only meaningful away from the rectifier kinks
    # (a dead layer over zero-initialized biases lands exactly on one), so
    # redraw any batch whose preactivations come too close; the meta batch
    # is screened at the pseudo params, where its forwards get differentiated
    for _ in range(64):
        train_x = data.standard_normal((b, backbone_cfg.input_dim))
        train_y = data.integers(0, backbone_cfg.num_classes, b).astype(np.int64)
        meta_x = data.standard_normal((b, backbone_cfg.input_dim))
        meta_y = data.integers(0, backbone_cfg.num_classes, b).astype(np.int64)
        if _min_preactivation(backbone, train_x) <= _KINK_MARGIN:
            continue
        train_pass = forward_pass(backbone, train_x, train_y)
        weights = wpn_weights(state.wpn, train_pass.outputs.losses).weights
        pseudo = lookahead(train_pass, weights, _ALPHA, state.grad, state.pseudo)
        if _min_preactivation(pseudo, meta_x) > _KINK_MARGIN:
            return state, (train_x, train_y), (meta_x, meta_y)
    raise ConfigError(
        "could not draw a finite-difference instance clear of rectifier kinks; "
        "try a different seed"
    )


def run_suites(
    backbone_cfg: BackboneConfig,
    wpn_cfg: WpnConfig,
    seed: int = TrainConfig.seed,
    q: float = TrainConfig.q,
) -> list[SuiteResult]:
    """Run all four FD suites."""
    state, train, meta = _build_instance(backbone_cfg, wpn_cfg, seed)
    results = []

    # 1. per-sample backbone gradients: the training sweep under each
    # (row, exit) cell's one-hot coefficients
    train_pass = forward_pass(state.backbone, *train)
    fd = fd_loss_grads(state.backbone, *train)
    cells = np.eye(fd.shape[0] * fd.shape[1]).reshape(-1, *fd.shape[:2])
    fd_rows = fd.reshape(len(cells), -1)
    worst = max(rel_err(batch_weighted_grad(train_pass, c, state.grad), g) for c, g in zip(cells, fd_rows))
    results.append(SuiteResult("backbone_per_sample", worst, 1e-5))

    # shared pieces for the meta chain
    tr_losses = train_pass.outputs.losses
    wpn_pass = wpn_weights(state.wpn, tr_losses)
    weights = wpn_pass.weights
    # analytic side of suite 2, and suite 4's dL/dw: the chain the trainer runs
    dl_dw, _, _, mask, _ = meta_chain(train_pass, weights, _ALPHA, *meta, q, out=state.grad, pseudo=state.pseudo)

    def meta_loss_for_weights(w: np.ndarray) -> float:
        pseudo = lookahead(train_pass, w, _ALPHA, state.grad, state.pseudo)
        return float(np.sum(mask * forward_all(pseudo, *meta).losses))

    # 2. weight gradient through the pseudo step (allocation fixed)
    fd_w = central_diff(meta_loss_for_weights, weights, 1e-4)
    results.append(SuiteResult("weight_gradient", rel_err(dl_dw, fd_w), 1e-4))

    # 3. weight-network backward for a fixed linear probe sum(c * weights)
    probe = RngStream(seed).child("probe").standard_normal(weights.shape)
    analytic_wpn = wpn_backward(wpn_pass, probe, state.wpn_grad)
    flat_g = state.wpn.flatten()

    def weights_at(flat: np.ndarray) -> np.ndarray:
        return wpn_weights(WpnParams.from_flat(state.wpn.config, flat), tr_losses).weights

    fd_wpn = central_diff(lambda flat: float(np.sum(probe * weights_at(flat))), flat_g, 1e-5)
    results.append(SuiteResult("wpn_backward", rel_err(analytic_wpn, fd_wpn), 1e-6))

    # 4. end to end: meta objective as a function of the network params;
    # the analytic side overwrites suite 3's in the state's buffer
    analytic_e2e = wpn_backward(wpn_pass, dl_dw, state.wpn_grad)
    fd_e2e = central_diff(lambda flat: meta_loss_for_weights(weights_at(flat)), flat_g, 1e-4)
    results.append(SuiteResult("end_to_end", rel_err(analytic_e2e, fd_e2e), 1e-4))
    return results
