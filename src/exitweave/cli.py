"""Command line interface: train, eval, gradcheck, allocate.

Runs are described by a JSON config file with four semantic sections
(dataset, backbone, wpn, train) plus an output section. Unknown keys are
rejected anywhere in the document, and each section is converted once
into its config dataclass. The dataset section is `datahub`'s:
`datahub.read_dataset` converts it, checks its data paths and makes them
absolute, and `datahub.build_datasets` builds the splits; this module
names no dataset kind. `run_document` collects the converted configs the
run used; `train` writes it, with the output section, as
resolved_config.json, which is itself a run config, and history.json and
metrics.json carry its hash (`config_hash`). That hash doubles as the
run id, so train and eval of one run share it, and the same config and
seed always produce the same id and byte-identical history/metrics
files. Every document goes through `serial.write_doc` and
`serial.read_doc`, which own the format header; a hand-written config
file may omit it.

Exit codes: 0 success, 2 configuration or file-format problems, 1
runtime/numeric failures such as a diverged run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import make_dataclass, replace
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, count_mul_adds, forward_all, require_fit
from .checkpoint import load_run_checkpoint, save_run_checkpoint
from .datahub import build_datasets, read_dataset
from .errors import CompatibilityError, ConfigError, DomainError, ExitweaveError, FormatError, ShapeError
from .evaluate import default_q_grid, score_anytime, score_sweep
from .exitpolicy import allocate_meta, calibrate_thresholds
from .gradcheck import DEFAULT_BACKBONE, DEFAULT_WPN, run_suites
from .numkit import require_finite
from .serial import (
    CONFIG_FORMAT, HISTORY_FORMAT, METRICS_FORMAT, config_doc, convert_fields, output_dir, read_config, read_doc,
    read_text, read_value, write_doc, write_text,
)
from .trainer import TrainConfig, run_training
from .wpn import WpnConfig


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# The output section: where `train` writes when --out is not given.
OutputConfig = make_dataclass("OutputConfig", [("dir", str, "runs/default")], frozen=True,
                              namespace={"__post_init__": convert_fields})


def load_config(path) -> dict:
    """Read a run config file and convert the sections that need no data.

    dataset becomes one config (`read_dataset`), train and output their
    TrainConfig and OutputConfig (frozen_wpn_path made absolute against
    the working directory); an absent or null wpn or output reads as
    the defaults. backbone and wpn stay as written until
    `_model_configs` converts them against the data.
    """
    p = Path(path)
    doc = read_doc(p, CONFIG_FORMAT, header_optional=True)
    unknown = sorted(set(doc) - {"dataset", "backbone", "wpn", "train", "output"})
    if unknown:
        raise ConfigError(f"{p}: unknown section(s): {', '.join(unknown)}")
    missing = sorted({"dataset", "backbone", "train"} - set(doc))
    if missing:
        raise ConfigError(f"{p}: missing required section(s): {', '.join(missing)}")
    train = read_config(TrainConfig, doc["train"], f"{p}: train")
    if train.frozen_wpn_path:  # recorded absolute, so resolved_config.json reruns from anywhere
        train = replace(train, frozen_wpn_path=str(Path(train.frozen_wpn_path).absolute()))
    wpn, output = ({} if doc.get(key) is None else doc[key] for key in ("wpn", "output"))
    return {
        "dataset": read_dataset(doc["dataset"], p),
        "backbone": doc["backbone"],
        "wpn": wpn,
        "train": train,
        "output": read_config(OutputConfig, output, f"{p}: output"),
    }


def _model_configs(run: dict, path, **widths):
    """Backbone and weight-network configs of a loaded run config.

    widths (input_dim, num_classes) are the data's; without them the
    backbone section must state both. The wpn section's num_exits is
    the trunk's. A section may state them (a resolved config does) only
    as these values, which `read_config` checks.
    """
    backbone = read_config(BackboneConfig, run["backbone"], f"{path}: backbone", **widths)
    return backbone, read_config(WpnConfig, run["wpn"], f"{path}: wpn", num_exits=backbone.num_exits)


def run_document(dataset, state, train_config) -> dict:
    """The semantic sections of one run: what resolved_config.json holds.

    Every value is a converted config field, dataset with its kind. The
    backbone and weight-network configs are read off the state (wpn None
    without a network, the loaded one's for frozen_wpn), so `train` and
    `eval` of one run build the same document.
    """
    return {
        "dataset": {"kind": dataset.kind, **config_doc(dataset)},
        "backbone": config_doc(state.backbone.config),
        "wpn": None if state.wpn is None else config_doc(state.wpn.config),
        "train": config_doc(train_config),
    }


def config_hash(run_doc: dict) -> str:
    """SHA-256 of a run document's canonical JSON; its first 12 hex digits are the run id."""
    payload = json.dumps(run_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stamped(digest: str, **body) -> dict:
    """An output document's body: the run id and config hash, then body."""
    return {"run_id": digest[:12], "config_hash": digest, **body}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    run = load_config(args.config)
    train_cfg = run["train"] if args.seed is None else replace(run["train"], seed=args.seed)
    out_dir = output_dir(args.out or run["output"].dir)
    train_set, val_set, _ = build_datasets(run["dataset"], args.config)
    backbone_cfg, wpn_cfg = _model_configs(
        run, args.config, input_dim=train_set.dim, num_classes=train_set.num_classes
    )
    try:
        state, history = run_training(train_cfg, backbone_cfg, wpn_cfg, train_set, val_set)
    except (ConfigError, FormatError, CompatibilityError) as exc:  # its checks name the key; the file is this one
        raise type(exc)(f"{args.config}: {exc}") from exc
    doc = run_document(run["dataset"], state, train_cfg)
    digest = config_hash(doc)
    write_doc(out_dir / "resolved_config.json", CONFIG_FORMAT, {**doc, "output": config_doc(run["output"])})
    save_run_checkpoint(out_dir / "checkpoint.json", state, train_cfg)
    write_doc(out_dir / "history.json", HISTORY_FORMAT,
              _stamped(digest, iterations=history.iterations, epochs=history.epochs))
    print(
        f"trained variant={train_cfg.variant} epochs={train_cfg.epochs} "
        f"iterations={state.iteration}; outputs in {out_dir}"
    )
    return 0


def _parse_q_grid(text: str):
    where = f"--q-grid {text!r}"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--q-grid range must be start:stop:count, got {text!r}")
        start, stop = (read_value(float, v, where) for v in parts[:2])
        count = read_value(int, parts[2], f"{where}: count")
        if count < 1:
            raise ConfigError("--q-grid count must be >= 1")
        grid = np.linspace(start, stop, count)
    else:
        grid = np.asarray([read_value(float, v, where) for v in text.split(",") if v != ""], dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0):
        raise ConfigError("--q-grid must contain positive values")
    return grid


def _dataset_for_eval(args, checkpoint_path: Path) -> tuple:
    """The dataset config eval runs on, and the file it came from:
    --dataset (a run config or a bare dataset section), else the
    resolved_config.json next to the checkpoint, whose header is required."""
    if args.dataset:
        p = Path(args.dataset)
        doc = read_doc(p, CONFIG_FORMAT, header_optional=True)
        return read_dataset(doc.get("dataset", doc), p), p
    sibling = checkpoint_path.resolve().parent / "resolved_config.json"
    if not sibling.is_file():
        raise ConfigError(f"no dataset available: {sibling}: file not found; pass --dataset")
    return read_dataset(read_doc(sibling, CONFIG_FORMAT).get("dataset"), sibling), sibling


def _write_curves_csv(path, rows, num_exits: int) -> None:
    header = (
        ["q", "accuracy", "expected_muladds"]
        + [f"exit_count_{i + 1}" for i in range(num_exits)]
        + [f"threshold_{i + 1}" for i in range(num_exits)]
    )
    lines = [",".join(header)]
    for r in rows:
        cells = [repr(r["q"]), repr(r["accuracy"]), repr(r["expected_muladds"])]
        cells += [str(c) for c in r["exit_counts"]]
        cells += [repr(t) for t in r["thresholds"]]
        lines.append(",".join(cells))
    write_text(path, "\n".join(lines) + "\n")


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    state, train_cfg = load_run_checkpoint(ckpt_path)
    dataset, ds_path = _dataset_for_eval(args, ckpt_path)
    _, val_set, test_set = build_datasets(dataset, ds_path)
    config = state.backbone.config
    for name, split in (("val", val_set), ("test", test_set)):
        require_fit(config, split, f"{ds_path}: the {name} split", CompatibilityError)
    grid = _parse_q_grid(args.q_grid) if args.q_grid else default_q_grid()
    out_dir = output_dir(args.out or ckpt_path.resolve().parent)
    val_outs = forward_all(state.backbone, val_set.features, val_set.labels)
    test_outs = forward_all(state.backbone, test_set.features, test_set.labels)
    rows = score_sweep(config, val_outs, test_outs, grid)
    anytime = score_anytime(test_outs)
    digest = config_hash(run_document(dataset, state, train_cfg))
    write_doc(out_dir / "metrics.json", METRICS_FORMAT, _stamped(
        digest,
        iteration=state.iteration,
        variant=train_cfg.variant,
        anytime={
            "accuracy": [float(a) for a in anytime],
            "exit_muladds": [int(c) for c in count_mul_adds(config)],
        },
        dynamic=rows,
    ))
    _write_curves_csv(out_dir / "curves.csv", rows, config.num_exits)
    print(f"evaluated {len(rows)} budget points; outputs in {out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    backbone_cfg, wpn_cfg, options = DEFAULT_BACKBONE, DEFAULT_WPN, {}
    if args.config:
        run = load_config(args.config)
        backbone_cfg, wpn_cfg = _model_configs(run, args.config)
        options = {"q": run["train"].q, "seed": run["train"].seed}
    if args.seed is not None:
        options["seed"] = args.seed
    results = run_suites(backbone_cfg, wpn_cfg, **options)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{r.name}: max_rel_err={r.max_rel_err:.3e} tolerance={r.tolerance:.0e} {status}")
    print("gradcheck: " + ("all suites passed" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_allocate(args) -> int:
    path = Path(args.confidences)
    rows = []
    width = None
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        require_finite(np.asarray(row), f"{path}: line {lineno}", FormatError)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no confidence rows found")
    table = np.asarray(rows, dtype=np.float64)
    if args.num_exits is not None and args.num_exits != table.shape[1]:
        raise ConfigError(
            f"--num-exits={args.num_exits} but the CSV has {table.shape[1]} columns"
        )
    alloc = allocate_meta(table, args.q)
    thresholds = calibrate_thresholds(table, args.q)
    doc = {
        "num_samples": int(table.shape[0]),
        "num_exits": int(table.shape[1]),
        "q": args.q,
        "sizes": [int(s) for s in alloc.sizes],
        "thresholds": [float(e) for e in thresholds],
        "subsets": [[int(i) for i in subset] for subset in alloc.subsets],
    }
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value: a whole number >= 0, as train.seed is."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a whole number >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitweave",
        description="Train and evaluate multi-exit classifiers with meta-learned sample weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the run config file")
    p_train.add_argument("--out", default=None, help="output directory (default: config's output.dir)")
    p_train.add_argument("--seed", type=_seed, default=None, help="override train.seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint across a budget grid")
    p_eval.add_argument("--checkpoint", required=True, help="path to a run checkpoint")
    p_eval.add_argument("--dataset", default=None,
                        help="JSON file with a dataset section (default: resolved_config.json next to the checkpoint)")
    p_eval.add_argument("--out", default=None, help="output directory (default: checkpoint directory)")
    p_eval.add_argument("--q-grid", dest="q_grid", default=None,
                        help="comma list of q values or start:stop:count (default 0.05:2.0:40)")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference audit of the gradient chain")
    p_grad.add_argument("--config", default=None, help="optional config naming a tiny architecture")
    p_grad.add_argument("--seed", type=_seed, default=None, help="override the audit seed")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_alloc = sub.add_parser("allocate", help="greedy budget allocation for a confidence CSV")
    p_alloc.add_argument("confidences", help="CSV of confidence rows, one column per exit")
    p_alloc.add_argument("--q", type=float, required=True, help="budget knob, q > 0")
    p_alloc.add_argument("--num-exits", dest="num_exits", type=int, default=None,
                         help="expected exit count; validated against the CSV width")
    p_alloc.set_defaults(func=cmd_allocate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, FormatError, CompatibilityError, DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExitweaveError as exc:  # TrainingError, NumericError: runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or a network too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
