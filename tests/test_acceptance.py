"""Acceptance gate: one test per shipping criterion.

Each test computes its verdict, records a (number, name, passed, detail)
row in CRITERION_RESULTS for the terminal scoreboard, and only then
asserts, so a red criterion still reports its measured numbers.

Tolerances and instance counts are fixed contract values; they must not
be loosened to make a run pass. Oracles used here are kept local to the
file and independent of the library internals they audit.
"""

import json
import time
from fractions import Fraction

import numpy as np

from exitweave.backbone import (
    BackboneConfig,
    BackboneParams,
    ExitOutputs,
    batch_weighted_grad,
    forward_all,
    forward_pass,
    init_params,
    sgd_step,
)
from exitweave.cli import main as cli_main
from exitweave.datahub import Dataset, gen_synthetic_gaussians, longtail_subsample, make_batches
from exitweave.evaluate import default_q_grid, score_anytime, score_sweep
from exitweave.exitpolicy import allocate_meta, calibrate_thresholds, dynamic_infer, exit_fractions
from exitweave.gradcheck import fd_loss_grads, rel_err, run_suites
from exitweave.numkit import RngStream
from exitweave.trainer import TrainConfig, TrainState, lr_at, run_training, train_step
from exitweave.wpn import AdamState, WpnConfig, init_wpn, make_weights, wpn_forward

CRITERION_RESULTS = []


def _record(number: int, name: str, passed: bool, detail: str) -> None:
    CRITERION_RESULTS.append((number, name, bool(passed), detail))


def _min_preactivation(params, batch: np.ndarray) -> float:
    """Smallest rectifier-input magnitude; local copy, part of the harness."""
    h = batch
    worst = np.inf
    for block in params.blocks:
        z = h @ block.weight.T + block.bias
        worst = min(worst, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return worst


def test_criterion_01_per_sample_gradient_fidelity():
    # 20 random small configurations; every per-sample per-exit gradient
    # must match central differences to 1e-5, all within a minute
    t0 = time.perf_counter()
    root = RngStream(101)
    worst = 0.0
    for trial in range(20):
        draw = root.child(f"cfg-{trial}")
        input_dim = int(draw.integers(2, 7, 1)[0])
        depth = int(draw.integers(1, 4, 1)[0])
        widths = tuple(int(w) for w in draw.integers(2, 7, depth))
        classes = int(draw.integers(2, 6, 1)[0])
        config = BackboneConfig(input_dim, widths, classes)
        params = init_params(config, draw.child("init"))
        assert params.num_params <= 2000
        data = draw.child("data")
        # screen samples one at a time: preactivations are per-sample, and
        # narrow trunks kill whole batches too often to screen batch-wise
        rows = []
        for _ in range(200):
            cand = data.standard_normal((1, input_dim))
            if _min_preactivation(params, cand) > 1e-3:
                rows.append(cand[0])
                if len(rows) == 4:
                    break
        else:
            raise AssertionError("no kink-free samples found")
        x = np.asarray(rows)
        y = data.integers(0, classes, 4).astype(np.int64)
        # the training sweep under each (row, exit) cell's one-hot coefficients
        fp = forward_pass(params, x, y)
        fd = fd_loss_grads(params, x, y)
        out = BackboneParams.zeros(config)
        for i in range(4):
            for k in range(config.num_exits):
                onehot = np.zeros((4, config.num_exits))
                onehot[i, k] = 1.0
                worst = max(worst, rel_err(batch_weighted_grad(fp, onehot, out), fd[i, k]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed <= 60.0
    detail = f"worst rel err {worst:.2e} (tol 1e-05) over 20 configs in {elapsed:.1f}s"
    _record(1, "per-sample gradient fidelity", ok, detail)
    assert ok, detail


def test_criterion_02_meta_chain_gradient_fidelity():
    # the weight gradient and the full chain into the weight network both
    # face finite differences on 10 random instances
    t0 = time.perf_counter()
    root = RngStream(202)
    worst_ratio = 0.0
    all_pass = True
    for trial in range(10):
        draw = root.child(f"inst-{trial}")
        input_dim = int(draw.integers(2, 6, 1)[0])
        depth = int(draw.integers(2, 4, 1)[0])
        widths = tuple(int(w) for w in draw.integers(3, 6, depth))
        classes = int(draw.integers(2, 5, 1)[0])
        backbone_cfg = BackboneConfig(input_dim, widths, classes)
        wpn_cfg = WpnConfig(
            backbone_cfg.num_exits,
            hidden_width=int(draw.integers(4, 17, 1)[0]),
            hidden_depth=int(draw.integers(1, 3, 1)[0]),
            delta=float(draw.uniform(0.2, 0.9, 1)[0]),
        )
        q = float(draw.uniform(0.4, 1.6, 1)[0])
        results = run_suites(backbone_cfg, wpn_cfg, seed=1000 + trial, q=q)
        by_name = {r.name: r for r in results}
        for name in ("weight_gradient", "end_to_end"):
            r = by_name[name]
            all_pass = all_pass and r.passed and r.tolerance <= 1e-4
            worst_ratio = max(worst_ratio, r.max_rel_err / r.tolerance)
    elapsed = time.perf_counter() - t0
    ok = all_pass and elapsed <= 120.0
    detail = f"worst err/tol ratio {worst_ratio:.2e} over 10 instances in {elapsed:.1f}s"
    _record(2, "meta-chain gradient fidelity", ok, detail)
    assert ok, detail


def test_criterion_03_degenerate_squash_reduces_to_unweighted():
    # with the squash range collapsed to zero, every backbone update over a
    # 100-iteration weighted run must equal the unit-weight update. The twin
    # sums its gradient in the trainer's order (one folded backward sweep per
    # exit): the dense per-sample route differs in the last bits, and over 100
    # momentum steps that alone grows past 1e-11, so it would measure summation
    # order rather than the weighting. Dense and folded routes are pinned equal
    # per call in test_backbone.py.
    backbone_cfg = BackboneConfig(6, (8, 6), 4)
    wpn_cfg = WpnConfig(2, hidden_width=8, hidden_depth=1, delta=0.0)
    root = RngStream(303)
    train = gen_synthetic_gaussians(4, 6, 50, 1.5, root.child("data"))
    cfg = TrainConfig(epochs=10, batch_size=20, alpha=0.1, variant="learned",
                      seed=11, interval=1, lr_schedule="cosine")
    state = TrainState(
        backbone=init_params(backbone_cfg, RngStream(11).child("init-backbone")),
        wpn=init_wpn(wpn_cfg, RngStream(11).child("init-wpn")),
        velocity=None,
        adam=AdamState.zeros(init_wpn(wpn_cfg, RngStream(11).child("init-wpn")).num_params),
    )
    twin = init_params(backbone_cfg, RngStream(11).child("init-backbone"))
    twin_vel, twin_grad = None, BackboneParams.zeros(backbone_cfg)
    worst = 0.0
    iterations = 0
    ones = np.ones((10, 2))
    for epoch in range(cfg.epochs):
        alpha_t = lr_at(cfg, epoch)
        for idx in make_batches(train, 20, epoch, cfg.seed, drop_last=True):
            x, y = train.features[idx], train.labels[idx]
            train_step(state, x, y, cfg, alpha_t)
            for sl in (slice(0, 10), slice(10, 20)):
                grad = batch_weighted_grad(forward_pass(twin, x[sl], y[sl]), ones / 10, twin_grad)
                twin, twin_vel = sgd_step(twin, grad, alpha_t, cfg.momentum,
                                          cfg.weight_decay, twin_vel)
            worst = max(worst, float(np.max(np.abs(state.backbone.flatten() - twin.flatten()))))
            iterations += 1
    ok = worst <= 1e-12 and iterations == 100
    detail = f"max param divergence {worst:.2e} (tol 1e-12) over {iterations} iterations"
    _record(3, "zero-range squash equals unweighted training", ok, detail)
    assert ok, detail


def _floor_rule_sizes(q: float, k: int, n: int) -> list:
    # exact-rational transcription of the documented rounding rule
    weights = [Fraction(q) ** j for j in range(1, k + 1)]
    total = sum(weights)
    sizes = [int(Fraction(n) * w / total) for w in weights[:-1]]  # int() floors positives
    sizes.append(n - sum(sizes))
    return sizes


def test_criterion_04_allocation_partition_and_rounding():
    root = RngStream(404)
    failures = 0
    for trial in range(1000):
        draw = root.child(f"alloc-{trial}")
        q = float(draw.uniform(0.1, 3.0, 1)[0])
        k = int(draw.integers(1, 9, 1)[0])
        n = int(draw.integers(1, 201, 1)[0])
        table = draw.uniform(0.0, 1.0, (n, k))
        alloc = allocate_meta(table, q)
        members = sorted(int(i) for subset in alloc.subsets for i in subset)
        if members != list(range(n)):
            failures += 1
            continue
        if [int(s) for s in alloc.sizes] != _floor_rule_sizes(q, k, n):
            failures += 1
    fractions = exit_fractions(0.5, 5)
    reference = np.array([0.52, 0.26, 0.13, 0.06, 0.03])
    frac_err = float(np.max(np.abs(fractions - reference)))
    ok = failures == 0 and frac_err < 0.005
    detail = f"{failures} violations in 1000 instances; reference-fraction err {frac_err:.4f}"
    _record(4, "allocation partition and rounding rule", ok, detail)
    assert ok, detail


def test_criterion_05_perturbation_contract():
    root = RngStream(505)
    worst_sum = 0.0
    worst_mean = 0.0
    range_ok = True
    for trial in range(1000):
        draw = root.child(f"wpn-{trial}")
        k = int(draw.integers(1, 9, 1)[0])
        b = int(draw.integers(1, 33, 1)[0])
        cfg = WpnConfig(
            k,
            hidden_width=int(draw.integers(4, 33, 1)[0]),
            hidden_depth=int(draw.integers(1, 3, 1)[0]),
            delta=float(draw.uniform(0.05, 0.95, 1)[0]),
        )
        params = init_wpn(cfg, draw.child("init"))
        losses = draw.uniform(0.0, 8.0, (b, k))
        raw, _ = wpn_forward(params, losses)
        ptb, weights, sigmoids = make_weights(raw, cfg.delta)
        pre = cfg.delta * (2.0 * sigmoids - 1.0)
        worst_sum = max(worst_sum, abs(float(ptb.sum())))
        worst_mean = max(worst_mean, abs(float(weights.mean()) - 1.0))
        range_ok = range_ok and bool(np.all(np.abs(pre) < cfg.delta))
    ok = worst_sum <= 1e-9 and worst_mean <= 1e-9 and range_ok
    detail = (f"max |sum ptb| {worst_sum:.1e}, max |mean w - 1| {worst_mean:.1e}, "
              f"pre-normalization strictly inside the range: {range_ok}")
    _record(5, "weight perturbation contract", ok, detail)
    assert ok, detail


def _outputs_from_confidences(conf: np.ndarray) -> ExitOutputs:
    b, k = conf.shape
    return ExitOutputs(np.zeros((b, k)), conf,
                       np.zeros((b, k), dtype=np.int64), np.zeros(b, dtype=np.int64))


def test_criterion_06_calibration_round_trip():
    root = RngStream(606)
    failures = 0
    for trial in range(200):
        draw = root.child(f"cal-{trial}")
        k = int(draw.integers(1, 7, 1)[0])
        n = int(draw.integers(1, 101, 1)[0])
        q = float(draw.uniform(0.2, 2.5, 1)[0])
        table = draw.uniform(0.0, 1.0, (n, k))
        alloc = allocate_meta(table, q)
        thresholds = calibrate_thresholds(table, q)
        replay = dynamic_infer(_outputs_from_confidences(table), thresholds)
        if [int(c) for c in replay.exit_counts] != [int(s) for s in alloc.sizes]:
            failures += 1
    ok = failures == 0
    detail = f"{failures} mismatches in 200 calibration/inference round trips"
    _record(6, "threshold calibration round trip", ok, detail)
    assert ok, detail


def _write_small_config(path, epochs: int) -> None:
    path.write_text(json.dumps({
        "dataset": {
            "kind": "synthetic", "classes": 4, "dim": 8,
            "train_per_class": 150, "val_per_class": 250, "test_per_class": 250,
            "spread": 1.5, "seed": 77,
        },
        "backbone": {"trunk_widths": [10, 8, 6]},
        "wpn": {"hidden_width": 16, "delta": 0.8},
        "train": {"epochs": epochs, "batch_size": 40, "alpha": 0.1, "seed": 5},
    }))


def test_criterion_07_cost_monotone_in_budget(tmp_path):
    cfg = tmp_path / "run.json"
    _write_small_config(cfg, epochs=5)
    out = tmp_path / "run-out"
    ev = tmp_path / "eval-out"
    rc_train = cli_main(["train", "--config", str(cfg), "--out", str(out)])
    rc_eval = cli_main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--out", str(ev)])
    metrics = json.loads((ev / "metrics.json").read_text())
    costs = [row["expected_muladds"] for row in metrics["dynamic"]]
    qs = [row["q"] for row in metrics["dynamic"]]
    ascending = all(a < b for a, b in zip(qs, qs[1:]))
    violations = sum(1 for a, b in zip(costs, costs[1:]) if b < a)
    ok = rc_train == 0 and rc_eval == 0 and ascending and violations == 0 and len(costs) == 40
    detail = f"{violations} violations across {len(costs)} ascending budget points"
    _record(7, "expected cost monotone in the budget knob", ok, detail)
    assert ok, detail


def test_criterion_08_desk_scale_efficacy():
    # 8-class mixture, 16 features, 4000/1000/1000 split, 4 exits, 100
    # epochs, 5 paired seeds: the weighted variant must match or beat the
    # unweighted baseline at >= 60% of budget points, and its first-exit
    # anytime accuracy must stay within half a point
    t0 = time.perf_counter()
    root = RngStream(1234)
    train = gen_synthetic_gaussians(8, 16, 500, 2.0, root.child("train"))
    val = gen_synthetic_gaussians(8, 16, 125, 2.0, root.child("val"), split="val")
    test = gen_synthetic_gaussians(8, 16, 125, 2.0, root.child("test"), split="test")
    backbone_cfg = BackboneConfig(16, (16, 16, 16, 16), 8)
    wpn_cfg = WpnConfig(4, hidden_width=500, hidden_depth=1, delta=0.8)
    grid = default_q_grid()
    acc = {"baseline": [], "learned": []}
    exit1 = {"baseline": [], "learned": []}
    for seed in range(5):
        for variant in ("baseline", "learned"):
            cfg = TrainConfig(epochs=100, batch_size=128, alpha=0.1, variant=variant,
                              seed=seed, q=0.75, interval=1)
            state, _ = run_training(cfg, backbone_cfg, wpn_cfg, train, val)
            # one forward pass per split scores both the budget sweep and exit 1
            val_outs, test_outs = (forward_all(state.backbone, split.features, split.labels) for split in (val, test))
            rows = score_sweep(backbone_cfg, val_outs, test_outs, grid)
            acc[variant].append([row["accuracy"] for row in rows])
            exit1[variant].append(float(score_anytime(test_outs)[0]))
    mean_base = np.mean(acc["baseline"], axis=0)
    mean_learn = np.mean(acc["learned"], axis=0)
    wins = int(np.sum(mean_learn >= mean_base))
    e1_base = float(np.mean(exit1["baseline"]))
    e1_learn = float(np.mean(exit1["learned"]))
    elapsed = time.perf_counter() - t0
    ok = (wins >= 24) and (e1_learn >= e1_base - 0.005) and elapsed <= 900.0
    detail = (f"weighted wins {wins}/40 budget points, exit-1 margin "
              f"{e1_learn - e1_base:+.4f} (floor -0.005), {elapsed:.0f}s")
    _record(8, "desk-scale weighted-training efficacy", ok, detail)
    assert ok, detail


def test_criterion_09_longtail_ratio_band():
    rng = RngStream(909)
    all_ok = True
    details = []
    for base in (400, 441):
        labels = np.repeat(np.arange(100), base).astype(np.int64)
        features = np.zeros((labels.shape[0], 2))
        dataset = Dataset(features, labels, 100)
        for factor in (20.0, 50.0, 100.0, 200.0):
            sub = longtail_subsample(dataset, factor, rng.child(f"lt-{base}-{factor}"))
            counts = np.bincount(sub.labels, minlength=100)
            if np.any(np.diff(counts) > 0) or counts[0] != base:
                all_ok = False
                details.append(f"F={factor:g}/N={base}: shape broken")
                continue
            ratio = counts.max() / counts.min()
            # smallest class may be off by at most its rounding: the implied
            # smallest count must sit within half a sample of base/F
            band_err = abs(base / ratio - base / factor)
            if band_err > 0.5:
                all_ok = False
            details.append(f"F={factor:g}/N={base}: ratio {ratio:.3f} (err {band_err:.2f})")
    worst = max(float(d.split("err ")[1].rstrip(")")) for d in details if "err" in d)
    detail = f"8 fixtures, worst rounding-band error {worst:.2f} of 0.5 allowed"
    _record(9, "long-tail imbalance ratio within rounding band", all_ok, detail)
    assert all_ok, "; ".join(details)


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.json"
    _write_small_config(cfg, epochs=3)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train-{tag}"
        ev = tmp_path / f"eval-{tag}"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                         "--out", str(ev)]) == 0
        outs.append((out, ev))
    (out_a, ev_a), (out_b, ev_b) = outs
    hist_same = (out_a / "history.json").read_bytes() == (out_b / "history.json").read_bytes()
    metrics_same = (ev_a / "metrics.json").read_bytes() == (ev_b / "metrics.json").read_bytes()
    curves_same = (ev_a / "curves.csv").read_bytes() == (ev_b / "curves.csv").read_bytes()
    ckpt_same = (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
    ok = hist_same and metrics_same and curves_same and ckpt_same
    detail = (f"history identical: {hist_same}, metrics identical: {metrics_same}, "
              f"curves identical: {curves_same}, checkpoint identical: {ckpt_same}")
    _record(10, "byte-identical reruns", ok, detail)
    assert ok, detail
