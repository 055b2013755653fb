"""The three benchmark workloads, each a closed loop with one client.

Every workload draws its data from the run seed, hands the library only
the generated arrays, and checks each operation's output. One operation
is one `trainer.train_step` (training workloads) or one load-and-sweep
of a checkpoint (`eval-sweep`). The library is always called through
module attributes (`ew.trainer.train_step`, never a bound name), so the
wrappers the traced run installs see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

import bench_trace

CLASSES = 8
DIM = 16
SPREAD = 2.0
TRAIN_PER_CLASS = 500  # 4000 training rows
EVAL_PER_CLASS = 1250  # 10 000 rows each in val and test
BATCH = 128
ALPHA = 0.1
WEIGHT_MEAN_TOL = 1e-12


def make_data(ew, seed: int):
    """(train, val, test) Gaussian-blob datasets drawn from the run seed."""
    root = ew.numkit.RngStream(seed)
    gen = ew.datahub.gen_synthetic_gaussians
    return tuple(
        gen(CLASSES, DIM, per_class, SPREAD, root.child(f"bench-{split}"), split=split)
        for split, per_class in (("train", TRAIN_PER_CLASS), ("val", EVAL_PER_CLASS),
                                 ("test", EVAL_PER_CLASS))
    )


def params_digest(params) -> str:
    return hashlib.sha256(params.flatten().tobytes()).hexdigest()


# Host-speed yardsticks: fixed kernels timed between operations. On a
# shared host the speed of a core changes by up to 2x for seconds at a
# time; the ratio of an operation's time to a kernel doing the same kind
# of work moves far less. Each workload names the kernel that matches it.
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.random((128, 128))
_REF_STREAM = _REF_RNG.random(2_000_000)
_REF_SMALL_X = _REF_RNG.random((64, 16))
_REF_SMALL_W = _REF_RNG.random((16, 16))
REF_INTERVAL_S = 0.25


def wide_yardstick() -> float:
    """Matrix products, interpreter work, zeroing 4 MB and streaming 16 MB."""
    start = time.perf_counter()
    for _ in range(8):
        _REF_MATRIX @ _REF_MATRIX
    total = 0
    for i in range(12000):
        total += i
    # Just under numpy's 4 MiB hugepage threshold, so the timing does not
    # depend on whether the host can hand out huge pages at the moment.
    zeroed = np.zeros(500_000)
    zeroed[::512] = 1.0
    _REF_STREAM.sum()
    return time.perf_counter() - start


def small_yardstick() -> float:
    """Many numpy calls on 64-row arrays, where per-call overhead dominates."""
    start = time.perf_counter()
    for _ in range(100):
        h = np.maximum(_REF_SMALL_X @ _REF_SMALL_W, 0.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


class Training:
    """train_step on the next mini-batch, in run_training's epoch/lr order.

    Training runs in rounds of `round_epochs` epochs, each restarted from
    the seed's initial state exactly as run_training starts, so every
    completed round must end with the same parameters and validation
    accuracy however many steps the time allows. The first round's
    figures are the workload's quality result.
    """

    op_name = "train_step"

    def __init__(self, ew, seed: int, variant: str, widths: tuple[int, ...],
                 round_epochs: int, warmup_steps: int, yardstick):
        self.ew = ew
        self.yardstick = yardstick
        self.seed = seed
        self.variant = variant
        self.widths = widths
        self.round_epochs = round_epochs
        self.warmup_steps = warmup_steps

    def setup(self) -> None:
        ew = self.ew
        self.train, self.val, _ = make_data(ew, self.seed)
        self.bb_config = ew.backbone.BackboneConfig(DIM, self.widths, CLASSES)
        self.wpn_config = ew.wpn.WpnConfig(len(self.widths))
        self.config = ew.trainer.TrainConfig(
            epochs=self.round_epochs, batch_size=BATCH, alpha=ALPHA,
            variant=self.variant, seed=self.seed,
        )
        half = BATCH // 2
        self.expected_sizes = [
            int(s) for s in ew.exitpolicy.allocation_sizes(self.config.q, len(self.widths), half)
        ]
        self.rounds: list[tuple[str, float]] = []
        self.reset()
        for _ in range(self.warmup_steps):
            self.operation()
            self.between_ops()
        self.rounds = []
        self.reset()

    def reset(self) -> None:
        """Start a round from the seed's initial state."""
        ew = self.ew
        root = ew.numkit.RngStream(self.config.seed)
        backbone = ew.backbone.init_params(self.bb_config, root.child("init-backbone"))
        wpn, adam = None, None
        if self.variant == "learned":
            wpn = ew.wpn.init_wpn(self.wpn_config, root.child("init-wpn"))
            adam = ew.wpn.AdamState.zeros(wpn.num_params)
        self.state = ew.trainer.TrainState(backbone=backbone, wpn=wpn, velocity=None, adam=adam)
        self.epoch = -1
        self.batches: list[np.ndarray] = []

    def _next_batch(self):
        if not self.batches:
            self.epoch += 1
            self.batches = list(self.ew.datahub.make_batches(
                self.train, BATCH, self.epoch, self.config.seed, drop_last=True
            ))
            self.alpha_t = self.ew.trainer.lr_at(self.config, self.epoch)
        idx = self.batches.pop(0)
        return self.train.features[idx], self.train.labels[idx]

    @property
    def round_complete(self) -> bool:
        return bool(self.rounds)

    def operation(self) -> tuple[float, bool]:
        """One step; returns (seconds inside train_step, output correct)."""
        x, y = self._next_batch()
        start = time.perf_counter()
        record = self.ew.trainer.train_step(self.state, x, y, self.config, self.alpha_t)
        elapsed = time.perf_counter() - start
        return elapsed, self._check(record)

    def between_ops(self) -> bool:
        """Close a finished round: evaluate, compare with round 1, restart."""
        if self.batches or self.epoch < self.round_epochs - 1:
            return True
        acc, ok = self.val_accuracy()
        self.rounds.append((params_digest(self.state.backbone), acc))
        self.reset()
        return ok and self.rounds[-1] == self.rounds[0]

    def _check(self, record: dict) -> bool:
        if not all(math.isfinite(v) for v in record["train_loss_per_exit"]):
            return False
        if self.variant == "learned":
            return abs(float(np.mean(record["weight_mean"])) - 1.0) <= WEIGHT_MEAN_TOL
        if self.variant == "selection":
            sizes = record["allocation_sizes"]
            return len(sizes) == 2 and all(list(row) == self.expected_sizes for row in sizes)
        return True

    def val_accuracy(self) -> tuple[float, bool]:
        """Validation dynamic accuracy at the config's q, as _eval_epoch computes it."""
        ew = self.ew
        outs = ew.backbone.forward_all(self.state.backbone, self.val.features, self.val.labels)
        thresholds = ew.exitpolicy.calibrate_thresholds(outs.confidences, self.config.q)
        result = ew.exitpolicy.dynamic_infer(outs, thresholds)
        return result.accuracy, int(result.exit_counts.sum()) == len(self.val)

    @property
    def accuracy(self) -> float:
        return self.rounds[0][1]

    def quality(self) -> dict:
        digest, acc = self.rounds[0]
        return {"val_dynamic_acc": acc, "params_sha256": digest, "rounds": len(self.rounds),
                "steps_per_round": self.round_epochs * (len(self.train) // BATCH)}

    def samples(self, n_ops: int) -> int:
        return n_ops * BATCH


class EvalSweep:
    """`exitweave eval` without file writes: load, 40-point sweep, anytime table.

    The checkpoint is a 128x4 model trained in set-up with a few
    `baseline` epochs; allocation does not depend on which variant
    trained the model, and baseline is the cheapest to train.
    """

    op_name = "load+sweep+anytime"
    widths = (128, 128, 128, 128)
    yardstick = staticmethod(wide_yardstick)
    ckpt_epochs = 4
    warmup_ops = 1

    def __init__(self, ew, seed: int, ckpt_path):
        self.ew = ew
        self.seed = seed
        self.ckpt_path = ckpt_path

    def setup(self) -> None:
        ew = self.ew
        train, self.val, self.test = make_data(ew, self.seed)
        bb_config = ew.backbone.BackboneConfig(DIM, self.widths, CLASSES)
        config = ew.trainer.TrainConfig(
            epochs=self.ckpt_epochs, batch_size=BATCH, alpha=ALPHA, variant="baseline", seed=self.seed,
        )
        state, _ = ew.trainer.run_training(config, bb_config, ew.wpn.WpnConfig(len(self.widths)),
                                           train, self.val)
        ew.checkpoint.save_run_checkpoint(self.ckpt_path, state, config)
        self.grid = ew.evaluate.default_q_grid()
        self.first: str | None = None
        for _ in range(self.warmup_ops):
            self.operation()

    round_complete = True

    def reset(self) -> None:
        pass

    def between_ops(self) -> bool:
        return True

    def operation(self) -> tuple[float, bool]:
        ew = self.ew
        start = time.perf_counter()
        state, _ = ew.checkpoint.load_run_checkpoint(self.ckpt_path)
        rows = ew.evaluate.dynamic_sweep(state.backbone, self.val, self.test, self.grid)
        anytime = ew.evaluate.anytime_accuracy(state.backbone, self.test)
        elapsed = time.perf_counter() - start
        ok = all(sum(row["exit_counts"]) == len(self.test) for row in rows)
        text = json.dumps({"rows": rows, "anytime": [float(a) for a in anytime]}, sort_keys=True)
        if self.first is None:
            self.first = text
            self.accuracy = float(np.mean([row["accuracy"] for row in rows]))
        return elapsed, ok and text == self.first

    def quality(self) -> dict:
        return {"sweep_mean_acc": self.accuracy,
                "sweep_sha256": hashlib.sha256(self.first.encode()).hexdigest()}

    def samples(self, n_ops: int) -> int:
        return n_ops * (len(self.val) + len(self.test))


WORKLOADS = ("train-learned-wide", "train-selection-desk", "eval-sweep")


def make_workload(name: str, ew, seed: int, ckpt_path):
    if name == "train-learned-wide":
        return Training(ew, seed, "learned", (128, 128, 128, 128), round_epochs=3, warmup_steps=2,
                        yardstick=wide_yardstick)
    if name == "train-selection-desk":
        return Training(ew, seed, "selection", (16, 16, 16, 16), round_epochs=20, warmup_steps=20,
                        yardstick=small_yardstick)
    if name == "eval-sweep":
        return EvalSweep(ew, seed, ckpt_path)
    raise ValueError(f"unknown workload {name!r}")


def run_ops(workload, deadline: float, tracer=None):
    """Run operations until the deadline and a first round are done.

    Returns (per-operation seconds, the workload's yardstick seconds
    measured last before each operation, failed count). With a tracer, each operation is one
    `bench.op` span and its spans carry its id.
    """
    times: list[float] = []
    refs: list[float] = []
    failed = 0
    for _ in range(5):
        workload.yardstick()  # until the allocator reuses the kernel's pages
    ref_at = -math.inf
    while time.perf_counter() < deadline or not workload.round_complete:
        if time.perf_counter() - ref_at >= REF_INTERVAL_S:
            ref = workload.yardstick()
            ref_at = time.perf_counter()
        if tracer is not None:
            tracer.op = len(times)
            span = tracer.open(bench_trace.OP_SPAN)
        start = time.perf_counter()
        try:
            elapsed, ok = workload.operation()
        except workload.ew.errors.ExitweaveError:
            # An operation that raises fails; training restarts its round.
            elapsed, ok = time.perf_counter() - start, False
            workload.reset()
        finally:
            if tracer is not None:
                tracer.close(span)
                tracer.op = bench_trace.NO_OP
        times.append(elapsed)
        refs.append(ref)
        failed += not (workload.between_ops() and ok)
    return times, refs, failed
