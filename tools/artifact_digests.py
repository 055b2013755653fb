"""Digest the artifacts of the reference runs, for byte-identity checks.

    python3 tools/artifact_digests.py --src CHECKOUT/src --out DIR

runs, from the package under --src and inside DIR, fourteen reference runs
(`train` then `eval` on the checkpoint) plus `gradcheck`, with the BLAS
thread pools capped at 1 (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS) and cwd-relative paths, then prints one
`sha256  path` line per file in DIR. Run it on two checkouts and diff
the outputs: equal lines mean byte-identical artifacts. The runs on data
files record the files' absolute paths, and `frozen_wpn` the absolute
path of the checkpoint it loads, in resolved_config.json and in the run
id, so run both checkouts at the same --out path: run one, keep its
output, remove DIR, then run the other. A DIR that is not empty is
refused before any run.

The reference runs are the six variants on a 16x4 trunk (synthetic data,
6 classes, dim 16, 150/60/60 rows per class; 3 epochs, batch 32,
weight-network hidden width 32; `frozen_wpn` loads
`learned/checkpoint.json`), with `fixed` run twice, as `fixed_ascending`
and `fixed_descending`, on the row `np.linspace(0.6, 1.4, 4)` and on its
reverse, `learned` on the same data and trunk with a three-hidden-layer
weight network (width 32), so that its backward sweep reaches blocks
below its head, `learned` on a 128x4 trunk (10 classes, dim 32,
100/50/50 rows per class; 2 epochs, batch 128), and `baseline` on a 16x4
trunk whose val and test splits hold 1,500 rows each (6 classes, dim 16,
250 rows per class in every split; 1 epoch, batch 64), so that
training's per-epoch validation and `eval` run `forward_all` in row
blocks, and `baseline` on a 16x4 trunk whose val and test splits hold
2,051 rows each (7 classes, dim 16, 150/293/293 rows per class; 1 epoch,
batch 64), which split unevenly into blocks of 684, 684 and 683 rows.
Last come three `baseline` runs on a 16x4 trunk (4 classes; 2 epochs,
batch 32), one for each file-backed dataset kind, on data files the tool
writes into DIR/data from a fixed seed, without the package: `container`
(dim 8, 200/80/80 rows), `idx` (3x3 uint8 images, 200/80/80 rows) and
`cifar_bin` (one 120-record train file, 40 of them held out for
validation, and a 40-record test file).
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

# run name -> the train keys beyond epochs, batch size and alpha; frozen_wpn reads learned's checkpoint
ROW = [float(w) for w in np.linspace(0.6, 1.4, 4)]
VARIANTS = {
    "learned": {"variant": "learned"},
    "baseline": {"variant": "baseline"},
    "fixed_ascending": {"variant": "fixed", "exit_weights": ROW},
    "fixed_descending": {"variant": "fixed", "exit_weights": ROW[::-1]},
    "selection": {"variant": "selection"},
    "whole_meta": {"variant": "whole_meta"},
    "frozen_wpn": {"variant": "frozen_wpn", "frozen_wpn_path": "learned/checkpoint.json"},
}


def _synthetic(classes: int, dim: int, train: int, held_out: int) -> dict:
    return {"kind": "synthetic", "classes": classes, "dim": dim, "train_per_class": train,
            "val_per_class": held_out, "test_per_class": held_out}


FILE_ROWS = {"train": 200, "val": 80, "test": 80}


def _blobs(rng, rows: int, dim: int, classes: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Labels, and features drawn around a per-class mean in [0, 1)."""
    means = np.random.default_rng(0).uniform(0.0, 1.0, (classes, dim))
    labels = rng.integers(0, classes, rows)
    return labels, means[labels] + 0.3 * rng.standard_normal((rows, dim))


def write_data_files(data: Path) -> None:
    """The data files of the file-backed runs, in each kind's format."""
    data.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2022)
    for split, rows in FILE_ROWS.items():
        labels, features = _blobs(rng, rows, 8)
        doc = {"format": "exitweave-dataset", "version": 1, "split": split, "num_classes": 4,
               "features": {"shape": list(features.shape),
                            "data": base64.b64encode(features.astype("<f8").tobytes()).decode("ascii")},
               "labels": labels.tolist()}
        (data / f"{split}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    for split, rows in FILE_ROWS.items():
        labels, features = _blobs(rng, rows, 9)
        pixels = np.clip(features * 255.0, 0, 255).astype(np.uint8)
        (data / f"{split}-images.idx").write_bytes(struct.pack(">4B3i", 0, 0, 0x08, 3, rows, 3, 3)
                                                   + pixels.tobytes())
        (data / f"{split}-labels.idx").write_bytes(struct.pack(">4Bi", 0, 0, 0x08, 1, rows)
                                                   + labels.astype(np.uint8).tobytes())
    for name, rows in (("train.bin", 120), ("test.bin", 40)):
        labels, features = _blobs(rng, rows, 3072)
        records = np.concatenate([labels[:, None], np.clip(features * 255.0, 0, 255)], axis=1)
        (data / name).write_bytes(records.astype(np.uint8).tobytes())


def _file_backed(dataset: dict) -> dict:
    return {"dataset": dataset, "backbone": {"trunk_widths": [16] * 4},
            "train": {"epochs": 2, "batch_size": 32, "alpha": 0.1, "variant": "baseline"}}


def reference_configs() -> dict[str, dict]:
    """Run name -> run config, in the order the runs must go."""
    configs = {}
    for name, train in VARIANTS.items():
        configs[name] = {
            "dataset": _synthetic(6, 16, 150, 60),
            "backbone": {"trunk_widths": [16] * 4},
            "wpn": {"hidden_width": 32},
            "train": {"epochs": 3, "batch_size": 32, "alpha": 0.1, **train},
        }
    configs["learned_deep"] = {
        "dataset": _synthetic(6, 16, 150, 60),
        "backbone": {"trunk_widths": [16] * 4},
        "wpn": {"hidden_width": 32, "hidden_depth": 3},
        "train": {"epochs": 3, "batch_size": 32, "alpha": 0.1, "variant": "learned"},
    }
    configs["learned_wide"] = {
        "dataset": _synthetic(10, 32, 100, 50),
        "backbone": {"trunk_widths": [128] * 4},
        "wpn": {"hidden_width": 32},
        "train": {"epochs": 2, "batch_size": 128, "alpha": 0.1},
    }
    configs["baseline_blocks"] = {
        "dataset": _synthetic(6, 16, 250, 250),
        "backbone": {"trunk_widths": [16] * 4},
        "train": {"epochs": 1, "batch_size": 64, "alpha": 0.1, "variant": "baseline"},
    }
    configs["baseline_uneven_blocks"] = {
        "dataset": _synthetic(7, 16, 150, 293),
        "backbone": {"trunk_widths": [16] * 4},
        "train": {"epochs": 1, "batch_size": 64, "alpha": 0.1, "variant": "baseline"},
    }
    configs["baseline_container"] = _file_backed(
        {"kind": "container", **{split: f"data/{split}.json" for split in FILE_ROWS}})
    configs["baseline_idx"] = _file_backed(
        {"kind": "idx", **{f"{split}_{part}": f"data/{split}-{part}.idx"
                           for split in FILE_ROWS for part in ("images", "labels")}})
    configs["baseline_cifar_bin"] = _file_backed(
        {"kind": "cifar_bin", "train": ["data/train.bin"], "test": "data/test.bin", "val_holdout": 40,
         "num_classes": 4})
    return configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--out", required=True, help="empty or new directory for the runs")
    args = parser.parse_args(argv)
    out = Path(args.out)
    # every file under --out gets a digest line, so a leftover one could hide an artifact a run stopped writing
    if out.is_dir() and any(out.iterdir()):
        sys.exit(f"{out}: not empty; remove it or pass an empty or new --out")
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    write_data_files(out / "data")

    def cli(*cmd: str) -> str:
        done = subprocess.run([sys.executable, "-m", "exitweave.cli", *cmd], cwd=out, env=env,
                              capture_output=True, text=True)
        # a failing gradcheck exits 1, and its report is an artifact like any other
        if done.returncode != 0 and not (cmd[0] == "gradcheck" and done.returncode == 1):
            sys.exit(f"exitweave {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
        return done.stdout

    for name, config in reference_configs().items():
        (out / f"{name}.json").write_text(json.dumps(config, indent=1) + "\n")
        cli("train", "--config", f"{name}.json", "--out", name)
        cli("eval", "--checkpoint", f"{name}/checkpoint.json")
    (out / "gradcheck.txt").write_text(cli("gradcheck"))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
