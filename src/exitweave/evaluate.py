"""Model evaluation: anytime accuracy tables and budget sweeps.

Anytime evaluation asks how accurate each exit is when every sample is
forced through it. The dynamic sweep asks what the threshold policy
delivers across a grid of budget knobs: for each q, thresholds are
calibrated on a validation split and replayed on a test split, yielding
(accuracy, expected cost) pairs that trace the accuracy/compute curve.
Both score forward outputs (`score_anytime`, `score_sweep`), so a caller
that already holds a split's outputs runs no second forward pass;
`anytime_accuracy` and `dynamic_sweep` run the passes themselves. Each
exit's validation confidences are sorted once per sweep, and the test
split is replayed at every q by counting `exitpolicy.exit_masks`, the
one leaving rule, against an exit-by-exit table of confidences and of
correct predictions built once per sweep, so sweeping is cheap.
"""

from __future__ import annotations

import numpy as np

from .backbone import BackboneConfig, BackboneParams, ExitOutputs, count_mul_adds, forward_all
from .datahub import Dataset
from .errors import ShapeError
from .exitpolicy import calibrate_threshold_grid, exit_masks, expected_cost


def score_anytime(outs: ExitOutputs) -> np.ndarray:
    """Per-exit accuracy of forward outputs, (K,)."""
    return (outs.predictions == outs.labels[:, None]).mean(axis=0)


def anytime_accuracy(params: BackboneParams, dataset: Dataset) -> np.ndarray:
    """Per-exit accuracy with every sample routed through every exit, (K,)."""
    return score_anytime(forward_all(params, dataset.features, dataset.labels))


def default_q_grid() -> np.ndarray:
    """The standard budget sweep: 40 points from 0.05 to 2.0 inclusive."""
    return np.linspace(0.05, 2.0, 40)


def score_sweep(config: BackboneConfig, val_outs: ExitOutputs, test_outs: ExitOutputs, q_grid=None) -> list[dict]:
    """Calibrate on val outputs and score test outputs at every q in the grid.

    Returns one row per q: thresholds, test exit counts, test accuracy,
    and expected per-sample mul-adds under config's cost vector. Rows
    are ordered exactly as the grid. Each q's row counts, exit by exit,
    the test rows `exit_masks` sends there and the correct ones among
    them, from tables built once per sweep; the rows are bitwise what
    `dynamic_infer` gives at each q's thresholds.
    """
    grid = default_q_grid() if q_grid is None else np.asarray(q_grid, dtype=np.float64)
    if val_outs.num_exits != test_outs.num_exits:
        raise ShapeError(f"val outputs have {val_outs.num_exits} exits, test outputs {test_outs.num_exits}")
    costs = count_mul_adds(config)
    conf_t = np.ascontiguousarray(test_outs.confidences.T, dtype=np.float64)
    correct_t = np.ascontiguousarray((test_outs.predictions == test_outs.labels[:, None]).T)
    rows = []
    for q, thresholds in zip(grid, calibrate_threshold_grid(val_outs.confidences, grid)):
        masks = exit_masks(conf_t, thresholds)
        counts = [int(np.count_nonzero(leaving)) for leaving in masks]
        masks &= correct_t
        rows.append({
            "q": float(q),
            "thresholds": [float(e) for e in thresholds],
            "exit_counts": counts,
            "accuracy": int(np.count_nonzero(masks)) / test_outs.batch_size,
            "expected_muladds": expected_cost(counts, costs),
        })
    return rows


def dynamic_sweep(
    params: BackboneParams,
    val_set: Dataset,
    test_set: Dataset,
    q_grid=None,
) -> list[dict]:
    """`score_sweep` of the model's outputs on val_set and test_set."""
    val_outs = forward_all(params, val_set.features, val_set.labels)
    test_outs = forward_all(params, test_set.features, test_set.labels)
    return score_sweep(params.config, val_outs, test_outs, q_grid)
