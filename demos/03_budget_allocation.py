#!/usr/bin/env python3
"""Budget-driven exit allocation and threshold calibration.

A geometric knob q splits a sample budget across exits; a greedy pass
hands the most confident samples to the earliest exits; thresholds read
off the last admitted confidence per exit. Replaying the thresholds on
the calibration table reproduces the allocation exactly.
"""

import numpy as np

from exitweave.exitpolicy import (
    allocate_meta,
    calibrate_thresholds,
    dynamic_infer,
    exit_fractions,
)
from exitweave.numkit import RngStream

root = RngStream(33)

print("exit fractions q^k / sum(q^j) for a 5-exit model:")
for q in (0.25, 0.5, 1.0, 2.0):
    fr = exit_fractions(q, 5)
    print(f"  q={q:<4}: {np.round(fr, 3)}")
print("q < 1 front-loads the early exits; q > 1 defers to the deep ones.")

table = root.child("conf").uniform(0.0, 1.0, (12, 3))
print(f"\nconfidence table, 12 samples x 3 exits:")
print(np.array2string(table, precision=3))

q = 0.5
alloc = allocate_meta(table, q)
print(f"\ngreedy allocation at q={q}: sizes {[int(s) for s in alloc.sizes]}")
for k, subset in enumerate(alloc.subsets):
    confs = np.round(table[subset, k], 3) if len(subset) else []
    print(f"  exit {k + 1}: samples {list(map(int, subset))} "
          f"(exit-{k + 1} confidences {confs})")

thresholds = calibrate_thresholds(table, q)
print(f"\ncalibrated thresholds: {np.round(thresholds, 3)}")
print("(the last exit's threshold is always 0: it accepts whatever remains)")

# round trip: thresholded inference on the same table gives the same counts
from exitweave.backbone import ExitOutputs

replay = ExitOutputs(
    losses=np.zeros((12, 3)),
    confidences=table,
    predictions=np.zeros((12, 3), dtype=np.int64),
    labels=np.zeros(12, dtype=np.int64),
)
result = dynamic_infer(replay, thresholds)
print(f"replayed exit counts:   {[int(c) for c in result.exit_counts]}")
print(f"allocation sizes again: {[int(s) for s in alloc.sizes]}")
print(f"round trip exact: {list(result.exit_counts) == [int(s) for s in alloc.sizes]}")
