#!/usr/bin/env python3
"""How per-sample loss weights are produced.

The weight network maps each sample's per-exit loss vector to raw
scores; a sigmoid squash bounds them, scaling by delta sets the range,
and subtracting the global mean recenters the batch so the weights
average to exactly one. Samples the pipeline at several delta values.
"""

import numpy as np

from exitweave.numkit import RngStream
from exitweave.wpn import WpnConfig, init_wpn, make_weights, wpn_forward

root = RngStream(21)
num_exits = 3
losses = root.child("losses").uniform(0.2, 4.0, (6, num_exits))
print("per-sample per-exit losses (6 samples, 3 exits):")
print(np.array2string(losses, precision=3))

for delta in (0.8, 0.3, 0.0):
    config = WpnConfig(num_exits, hidden_width=16, hidden_depth=1, delta=delta)
    params = init_wpn(config, root.child("wpn"))
    raw, _ = wpn_forward(params, losses)
    ptb, weights, sigmoids = make_weights(raw, delta)
    pre = delta * (2.0 * sigmoids - 1.0)
    print(f"\ndelta = {delta}")
    print(f"  raw score range     [{raw.min():+.3f}, {raw.max():+.3f}]")
    print(f"  squashed range      [{pre.min():+.3f}, {pre.max():+.3f}]  (open interval +-{delta})")
    print(f"  centered sum        {ptb.sum():+.2e}  (exactly recentered)")
    print(f"  weight mean         {weights.mean():.15f}")
    print(f"  weight range        [{weights.min():.3f}, {weights.max():.3f}]")

print("\ndelta = 0 collapses every weight to exactly 1.0, which is how the")
print("weighted trainer reduces to plain unweighted training.")

# the same loss vector always gets the same weight: the map is per-row
config = WpnConfig(num_exits, hidden_width=16, hidden_depth=1, delta=0.8)
params = init_wpn(config, root.child("wpn"))
doubled = np.vstack([losses, losses[:1]])
raw, _ = wpn_forward(params, doubled)
print(f"\nrow 0 and its duplicate produce identical raw scores: "
      f"{bool(np.array_equal(raw[0], raw[-1]))}")
