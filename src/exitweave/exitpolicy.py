"""Budgeted exit allocation, threshold calibration, and dynamic inference.

A single knob q > 0 describes the compute budget: exit k receives a
share of samples proportional to q**k, so small q pushes everything
through the first exits and large q defers to the deep ones. From that
one knob the module derives

  * integer head-counts per exit (floor for all but the last exit, the
    last absorbs the remainder),
  * a greedy allocation of a confidence table to exits (each exit takes
    its quota from the most confident samples still unassigned),
  * confidence thresholds that replay the same allocation as a simple
    "exit at the first threshold you clear" rule, and
  * the expected inference cost of a threshold policy under a per-exit
    cost vector.

The allocation, the thresholds at one q and the thresholds over a whole
q grid (`calibrate_threshold_grid`) share one greedy loop over each
exit's stable descending order of the table, sorted once per table: an
exit takes the first rows of its order that no earlier exit claimed.

The replay has one rule too, `exit_masks`: walking the exits in order,
the rows that leave at exit k are those whose confidence clears eps[k]
among the rows still open, and the last exit takes what is left.
`exit_decisions` (and so `dynamic_infer`) reads each row's exit index
off those masks, and `evaluate.score_sweep` counts them at every q.

Floor counts are exact for the float value of q, which is the ratio of
two integers (`float.as_integer_ratio`): each floor is one integer
division, so mathematically-integer boundaries like q=1, K=3, N=6 come
out as equal thirds, which naive float multiplication misses.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .backbone import ExitOutputs
from .errors import DomainError, ShapeError
from .numkit import require_finite

# Threshold reported for an exit that was allocated zero samples: above any
# reachable confidence, so the replayed rule skips the exit entirely.
EMPTY_EXIT_SENTINEL = 1.5


def _check_budget(q: float, num_exits: int) -> None:
    if num_exits < 1:
        raise DomainError(f"num_exits must be >= 1, got {num_exits}")
    if not (q > 0.0) or not math.isfinite(q):
        raise DomainError(f"q must be a positive finite number, got {q}")


def exit_fractions(q: float, num_exits: int) -> np.ndarray:
    """Budget fractions f[k] = q**(k+1) / sum_j q**(j+1), shape (K,).

    The powers are scaled by the largest, q**K for q > 1 and q otherwise,
    so every one lies in (0, 1] and none overflows, whatever q.
    """
    _check_budget(q, num_exits)
    k = np.arange(num_exits, dtype=np.float64)
    powers = np.power(float(q), k - (num_exits - 1) if q > 1.0 else k)
    return powers / powers.sum()


def allocation_sizes(q: float, num_exits: int, n: int) -> np.ndarray:
    """Integer quota per exit: floor(f_k * n) for k < K, remainder to exit K.

    The float q is exactly the ratio a / b of two Python ints, so
    f_k = a**k * b**(K-k) / sum_j a**j * b**(K-j) and each floor is one
    exact integer division: exact for the real number the float q
    denotes. Sizes are nonnegative and sum to n; the last exit's
    remainder is always at least floor(f_K * n).
    """
    try:
        n = operator.index(n)  # a Python int: a numpy int times a large term would overflow
    except TypeError:
        raise DomainError(f"n must be an integer, got {n!r}") from None
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    _check_budget(q, num_exits)
    a, b = float(q).as_integer_ratio()
    terms = [a**k * b ** (num_exits - k) for k in range(1, num_exits + 1)]
    total = sum(terms)
    sizes = [n * term // total for term in terms[:-1]]
    sizes.append(n - sum(sizes))
    return np.array(sizes, dtype=np.int64)


@dataclass
class AllocationResult:
    """Partition of sample indices across exits.

    subsets[k] holds the indices assigned to exit k: for k < K-1 in
    descending confidence order (so the last entry is the marginal
    sample), for the final exit in ascending index order. sizes mirrors
    the subset lengths.
    """

    subsets: list[np.ndarray]
    sizes: np.ndarray


def _confidence_table(confidences) -> np.ndarray:
    conf = np.ascontiguousarray(confidences, dtype=np.float64)
    if conf.ndim != 2:
        raise ShapeError(f"confidence table must be 2-D, got ndim={conf.ndim}")
    require_finite(conf, "confidence table")
    if conf.shape[0] < 1:
        raise DomainError("confidence table must have at least one row")
    return conf


def _exit_orders(conf: np.ndarray) -> np.ndarray:
    """Row k: all sample indices by descending confidence at exit k, ties
    toward the lower index, for every exit but the last; (K-1, N)."""
    return np.ascontiguousarray(-conf[:, :-1].T).argsort(axis=1, kind="stable")


def _greedy_subsets(orders: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """The greedy partition: exit k takes the first sizes[k] unclaimed rows
    of orders[k]; the last exit takes the rest in ascending index order.

    Dropping claimed rows from a full-table order leaves the unclaimed
    rows in the order a stable sort of the remainder alone would give,
    because the remainder keeps ascending index order. Nothing is
    claimed before the first exit, which takes the head of its order.
    """
    claimed = np.zeros(orders.shape[1], dtype=bool)
    subsets = []
    for order, take in zip(orders, sizes[:-1]):
        chosen = (order[~claimed[order]] if subsets else order)[: int(take)]
        claimed[chosen] = True
        subsets.append(chosen)
    subsets.append(np.flatnonzero(~claimed))
    return subsets


def allocate_meta(confidences, q: float) -> AllocationResult:
    """Greedy confidence-ordered partition of a (N, K) table.

    Exit k takes its quota from the most confident (per its own column)
    samples not yet claimed by exits 1..k-1; the last exit absorbs
    whatever remains. Ties break toward the lower sample index, so the
    result is deterministic.
    """
    conf = _confidence_table(confidences)
    sizes = allocation_sizes(q, conf.shape[1], conf.shape[0])
    return AllocationResult(_greedy_subsets(_exit_orders(conf), sizes), sizes)


def calibrate_threshold_grid(val_confidences, q_grid) -> np.ndarray:
    """`calibrate_thresholds` at every q of a grid, (Q, K), sorting each exit once.

    Row j is bitwise the thresholds `calibrate_thresholds` gives at
    q_grid[j]; the per-exit orders are shared by the whole grid.
    """
    conf = _confidence_table(val_confidences)
    n, num_exits = conf.shape
    orders = _exit_orders(conf)
    eps = np.zeros((len(q_grid), num_exits))
    for row, q in zip(eps, q_grid):
        subsets = _greedy_subsets(orders, allocation_sizes(q, num_exits, n))
        for k, subset in enumerate(subsets[:-1]):
            row[k] = conf[subset[-1], k] if subset.size else EMPTY_EXIT_SENTINEL
    return eps


def calibrate_thresholds(val_confidences, q: float) -> np.ndarray:
    """Per-exit confidence thresholds replaying the greedy allocation.

    eps[k] is the confidence of the least confident sample exit k
    accepted; exits with an empty quota get EMPTY_EXIT_SENTINEL, and the
    final exit's threshold is 0 so nothing falls through. Replaying
    "exit at the first k with confidence >= eps[k]" on the calibration
    table reproduces the allocation exactly whenever no two samples tie
    at a quota boundary.
    """
    return calibrate_threshold_grid(val_confidences, [q])[0]


def exit_masks(conf_t: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The leaving rule: (K, N) booleans whose row k marks the rows that leave at exit k.

    conf_t is the confidence table exit by exit, (K, N), and thresholds
    has one entry per exit. A row leaves at the first exit whose
    threshold its confidence clears; the final exit takes every row
    still open, whatever its threshold. Each column holds one True.
    """
    masks = np.empty(conf_t.shape, dtype=bool)
    np.greater_equal(conf_t[:-1], thresholds[:-1, None], out=masks[:-1])
    still_open = masks[-1]
    still_open[:] = True
    for leaving in masks[:-1]:
        leaving &= still_open
        still_open ^= leaving
    return masks


def exit_decisions(confidences, thresholds) -> np.ndarray:
    """Index of the first exit whose threshold each row clears, (B,) ints.

    The final exit accepts unconditionally regardless of its threshold.
    """
    conf = np.ascontiguousarray(confidences, dtype=np.float64)
    eps = np.asarray(thresholds, dtype=np.float64)
    if conf.ndim != 2 or eps.shape != (conf.shape[1],):
        raise ShapeError(f"confidences {conf.shape} and thresholds {eps.shape} do not align")
    return exit_masks(conf.T, eps).argmax(axis=0)


@dataclass
class DynamicInference:
    """Outcome of threshold-based early exiting on one batch."""

    exit_indices: np.ndarray
    predictions: np.ndarray
    correct: np.ndarray
    exit_counts: np.ndarray

    @property
    def accuracy(self) -> float:
        return float(self.correct.mean())


def dynamic_infer(outputs: ExitOutputs, thresholds) -> DynamicInference:
    """Route each sample to its first confident-enough exit and score it."""
    k_star = exit_decisions(outputs.confidences, thresholds)
    rows = np.arange(outputs.batch_size)
    predictions = outputs.predictions[rows, k_star]
    correct = predictions == outputs.labels
    counts = np.bincount(k_star, minlength=outputs.num_exits)
    return DynamicInference(k_star, predictions, correct, counts)


def expected_cost(exit_counts, costs) -> float:
    """Average per-sample cost of an observed exit distribution.

    The count-weighted mean of costs, which need not increase across
    exits (a narrow late head can cost less than a wide early one);
    counts must be nonnegative with a positive total.
    """
    counts = np.asarray(exit_counts, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if counts.ndim != 1 or counts.shape != c.shape:
        raise ShapeError(f"exit counts {counts.shape} and costs {c.shape} must match")
    if np.any(counts < 0):
        raise DomainError("exit counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise DomainError("exit counts must sum to a positive number")
    return float(np.dot(counts, c) / total)
