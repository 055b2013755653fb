"""The versioned run checkpoint, the one model document.

A JSON envelope with base64 float64 buffers holding the backbone and
the weight network (if any), each as config + flat parameter vector,
the optimizer buffers, the training config and the iteration counter:
enough to evaluate or inspect a finished run, and where a `frozen_wpn`
run reads its weight network. `serial` writes and checks its header
(format `exitweave-run`). A load requires every key the writer writes:
the five top-level keys, the four optimizer keys and every field of
each config, as `config_doc` writes them. Loads also check that the
flat vectors match the parameter counts their configs imply, raising
CompatibilityError rather than producing silently misshapen models.
"""

from __future__ import annotations

from .backbone import BackboneConfig, BackboneParams
from .errors import CompatibilityError, FormatError, ShapeError
from .serial import (
    RUN_FORMAT, config_doc, decode_array, encode_array, read_config, read_doc, read_value, require_keys, write_doc,
)
from .trainer import TrainConfig, TrainState
from .wpn import AdamState, WpnConfig, WpnParams


def _params_doc(params) -> dict:
    return {"config": config_doc(params.config), "params": encode_array(params.buffer)}


def _params_from(doc, path, section: str, params_cls, config_cls):
    """Params from a {config, params} document."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {section}: expected a JSON object")
    config = read_config(config_cls, doc.get("config"), f"{path}: {section}.config", FormatError, fill=False)
    try:
        return params_cls(config, decode_array(doc.get("params"), f"{path}: {section}.params"))
    except ShapeError as exc:
        raise CompatibilityError(f"{path}: {section}: {exc}") from exc


def save_run_checkpoint(path, state: TrainState, train_config: TrainConfig) -> None:
    doc = {
        "iteration": state.iteration,
        "train_config": config_doc(train_config),
        "backbone": _params_doc(state.backbone),
        "wpn": None if state.wpn is None else _params_doc(state.wpn),
        "optimizer": {
            "velocity": None if state.velocity is None else encode_array(state.velocity),
            "adam_m": None,
            "adam_v": None,
            "adam_step": None,
        },
    }
    if state.adam is not None:
        doc["optimizer"]["adam_m"] = encode_array(state.adam.m)
        doc["optimizer"]["adam_v"] = encode_array(state.adam.v)
        doc["optimizer"]["adam_step"] = state.adam.step
    write_doc(path, RUN_FORMAT, doc)


def load_run_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    doc = read_doc(path, RUN_FORMAT)
    require_keys(doc, ("iteration", "train_config", "backbone", "wpn", "optimizer"), str(path), FormatError)
    train_config = read_config(TrainConfig, doc["train_config"], f"{path}: train_config", FormatError, fill=False)
    backbone = _params_from(doc["backbone"], path, "backbone", BackboneParams, BackboneConfig)
    wpn_params = None
    if doc["wpn"] is not None:
        wpn_params = _params_from(doc["wpn"], path, "wpn", WpnParams, WpnConfig)
    opt = doc["optimizer"]
    if not isinstance(opt, dict):
        raise FormatError(f"{path}: optimizer: expected a JSON object")
    require_keys(opt, ("velocity", "adam_m", "adam_v", "adam_step"), f"{path}: optimizer", FormatError)
    velocity = None if opt["velocity"] is None else decode_array(opt["velocity"], f"{path}: optimizer.velocity")
    if velocity is not None and velocity.shape != (backbone.num_params,):
        raise CompatibilityError(f"{path}: momentum buffer does not match parameter count")
    if wpn_params is None and any(opt[key] is not None for key in ("adam_m", "adam_v", "adam_step")):
        raise CompatibilityError(f"{path}: optimizer: Adam state in a run checkpoint with no weight network")
    adam = None
    if opt["adam_m"] is not None:
        adam = AdamState(
            decode_array(opt["adam_m"], f"{path}: optimizer.adam_m"),
            decode_array(opt["adam_v"], f"{path}: optimizer.adam_v"),
            read_value(int, opt["adam_step"], f"{path}: optimizer.adam_step", FormatError),
        )
        if wpn_params is not None and not adam.m.shape == adam.v.shape == (wpn_params.num_params,):
            raise CompatibilityError(f"{path}: Adam buffers do not match weight-network size")
    iteration = read_value(int, doc["iteration"], f"{path}: iteration", FormatError)
    state = TrainState(backbone=backbone, wpn=wpn_params, velocity=velocity, adam=adam, iteration=iteration)
    return state, train_config
