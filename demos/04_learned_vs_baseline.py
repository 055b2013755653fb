#!/usr/bin/env python3
"""Weighted training against the plain baseline, end to end.

Trains the same multi-exit net twice on a noisy 8-class mixture: once
with conventional unweighted updates, once with meta-learned per-sample
weights. Then sweeps the budget knob and prints the accuracy/cost
trade-off side by side. Takes around half a minute on a laptop CPU.
"""

import numpy as np

from exitweave.backbone import BackboneConfig, forward_all
from exitweave.datahub import gen_synthetic_gaussians
from exitweave.evaluate import score_anytime, score_sweep
from exitweave.numkit import RngStream
from exitweave.trainer import TrainConfig, run_training
from exitweave.wpn import WpnConfig

root = RngStream(1234)
spread = 2.0
train = gen_synthetic_gaussians(8, 16, 300, spread, root.child("train"))
val = gen_synthetic_gaussians(8, 16, 60, spread, root.child("val"), split="val")
test = gen_synthetic_gaussians(8, 16, 60, spread, root.child("test"), split="test")
print(f"data: {len(train)} train / {len(val)} val / {len(test)} test, "
      f"8 classes, 16 features, heavy class overlap")

backbone_cfg = BackboneConfig(16, (16, 16, 16, 16), 8)
wpn_cfg = WpnConfig(4, hidden_width=64, hidden_depth=1, delta=0.8)
grid = np.linspace(0.1, 2.0, 8)

outputs = {}
for variant in ("baseline", "learned"):
    cfg = TrainConfig(epochs=80, batch_size=80, alpha=0.1, variant=variant,
                      seed=1, q=0.75, interval=1)
    state, history = run_training(cfg, backbone_cfg, wpn_cfg, train, val)
    # one forward pass per split scores both the anytime table and the sweep
    outputs[variant] = [forward_all(state.backbone, split.features, split.labels) for split in (val, test)]
    last = history.epochs[-1]
    print(f"\n{variant}: trained {state.iteration} iterations")
    print(f"  final val anytime accuracy per exit: "
          f"{np.round(last['val_anytime_accuracy'], 3)}")

print("\nanytime accuracy on the test split (classify at exit k, no routing):")
for variant, (_, test_outs) in outputs.items():
    acc = score_anytime(test_outs)
    print(f"  {variant:9s}: {np.round(acc, 3)}")

print("\ndynamic inference: thresholds calibrated on val, applied to test")
header = f"{'q':>5}  {'baseline acc':>12}  {'learned acc':>11}  {'baseline cost':>13}  {'learned cost':>12}"
print(header)
rows = {v: score_sweep(backbone_cfg, val_outs, test_outs, grid) for v, (val_outs, test_outs) in outputs.items()}
wins = 0
for rb, rl in zip(rows["baseline"], rows["learned"]):
    mark = " *" if rl["accuracy"] >= rb["accuracy"] else ""
    wins += rl["accuracy"] >= rb["accuracy"]
    print(f"{rb['q']:5.2f}  {rb['accuracy']:12.3f}  {rl['accuracy']:11.3f}  "
          f"{rb['expected_muladds']:13.0f}  {rl['expected_muladds']:12.0f}{mark}")
print(f"\nweighted training matches or beats the baseline at {wins}/{len(grid)} "
      f"budget points (*)")
print("larger runs (more data, 100 epochs, several seeds) make the gap steadier;")
print("the shipped test suite runs that protocol as its efficacy criterion.")
