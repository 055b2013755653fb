#!/usr/bin/env python3
"""Walk through a multi-exit forward pass.

Builds a small shared-trunk classifier with three exits, pushes a batch
through it, and prints what each exit sees: class probabilities,
confidence, loss, and the cumulative multiply-add cost of stopping
there.
"""

import numpy as np

from exitweave.backbone import BackboneConfig, count_mul_adds, forward_pass, head_forward, init_params
from exitweave.datahub import gen_synthetic_gaussians
from exitweave.numkit import RngStream, softmax_lse

root = RngStream(7)
config = BackboneConfig(input_dim=4, trunk_widths=(8, 6, 5), num_classes=3)
params = init_params(config, root.child("params"))
data = gen_synthetic_gaussians(3, 4, per_class=2, spread=0.8, rng=root.child("data"))

print(f"backbone: {config.input_dim} features -> trunk {config.trunk_widths} "
      f"-> {config.num_classes} classes, {config.num_exits} exits")
print(f"parameters: {params.num_params}")

costs = count_mul_adds(config)
print("\ncumulative multiply-adds per exit (strictly increasing):")
for k, c in enumerate(costs):
    print(f"  exit {k + 1}: {int(c):5d}")

fp = forward_pass(params, data.features, data.labels)
outs = fp.outputs
# the pass keeps its logit errors, not its probabilities: each exit's
# softmax is recomputed from its head's logits on the trunk activations
probs = [softmax_lse(logits)[0] for logits in head_forward(params, fp.hs)]
print(f"\nbatch of {outs.batch_size}; per-sample view, one row per exit:")
for i in range(outs.batch_size):
    print(f"sample {i} (label {data.labels[i]}):")
    for k in range(outs.num_exits):
        print(f"  exit {k + 1}: probabilities {np.array2string(probs[k][i], precision=3)}  "
              f"confidence {outs.confidences[i, k]:.3f}  "
              f"loss {outs.losses[i, k]:.3f}  "
              f"prediction {outs.predictions[i, k]}")

# an untrained net is near-uniform: confidence hovers around 1/num_classes
print(f"\nmean confidence per exit: {np.round(outs.confidences.mean(axis=0), 3)}")
print(f"uniform guess would be {1.0 / config.num_classes:.3f}")
