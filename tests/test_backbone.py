"""Multi-exit backbone checks.

The forward pass is compared against a straight-line reimplementation
written with elementary loops, per-sample gradients against central
finite differences, and the update rules against direct transcriptions
of their formulas. The dense per-sample gradient route, the fused
coefficient route and the layer-by-layer inner-product route are
cross-checked against each other; the dense route must also agree with
the oracles independently.
"""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from exitweave.backbone import (
    FORWARD_BLOCK_ROWS,
    Affine,
    BackboneConfig,
    BackboneParams,
    ExitOutputs,
    batch_weighted_grad,
    count_mul_adds,
    forward_all,
    forward_pass,
    grad_weighted_loss,
    init_params,
    layer_slices,
    param_layout,
    per_sample_grad_dots,
    per_sample_grads,
    pseudo_step,
    sgd_step,
)
from exitweave.errors import ConfigError, NumericError, ShapeError
from exitweave.gradcheck import fd_loss_grads, rel_err
from exitweave.numkit import RngStream, softmax_lse
from exitweave.wpn import WpnConfig, WpnParams


def forward_oracle(params: BackboneParams, x_row: np.ndarray, label: int):
    """Straight-line single-sample forward: losses and confidences per exit."""
    import math

    h = [float(v) for v in x_row]
    losses, confs = [], []
    for k in range(params.config.num_exits):
        blk = params.blocks[k]
        z = []
        for o in range(blk.weight.shape[0]):
            acc = blk.bias[o]
            for i in range(blk.weight.shape[1]):
                acc += blk.weight[o, i] * h[i]
            z.append(acc)
        h = [max(v, 0.0) for v in z]
        head = params.heads[k]
        logits = []
        for c in range(head.weight.shape[0]):
            acc = head.bias[c]
            for i in range(head.weight.shape[1]):
                acc += head.weight[c, i] * h[i]
            logits.append(acc)
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        total = sum(exps)
        probs = [e / total for e in exps]
        losses.append(-math.log(probs[label]))
        confs.append(max(probs))
    return losses, confs


def small_instance(seed=0, config=None, batch=5):
    config = config or BackboneConfig(3, (4, 3), 3)
    root = RngStream(seed)
    params = init_params(config, root.child("init"))
    data = root.child("data")
    x = data.standard_normal((batch, config.input_dim))
    y = data.integers(0, config.num_classes, batch).astype(np.int64)
    return config, params, x, y


class TestConfigAndLayout:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BackboneConfig(0, (4,), 3)
        with pytest.raises(ConfigError):
            BackboneConfig(2, (), 3)
        with pytest.raises(ConfigError):
            BackboneConfig(2, (4, 0), 3)
        with pytest.raises(ConfigError):
            BackboneConfig(2, (4,), 1)

    def test_param_count_hand_total(self):
        # input 2, widths [8, 8], C=3:
        # blocks: 8*2+8 + 8*8+8 = 24 + 72; heads: 2 * (3*8+3) = 54; total 150
        config = BackboneConfig(2, (8, 8), 3)
        blocks, heads, total = param_layout(config)
        assert [(sl.weight, sl.bias) for sl in blocks] == [
            (slice(0, 16), slice(16, 24)), (slice(24, 88), slice(88, 96))]
        assert [(sl.weight, sl.bias) for sl in heads] == [
            (slice(96, 120), slice(120, 123)), (slice(123, 147), slice(147, 150))]
        assert total == 150
        params = init_params(config, RngStream(0))
        assert params.num_params == 150
        assert params.flatten().shape == (150,)

    def test_layout_slices_tile_the_vector(self):
        config = BackboneConfig(3, (4, 5), 4)
        blocks, heads, total = param_layout(config)
        covered = np.zeros(total, dtype=int)
        for sl in blocks + heads:
            covered[sl.weight] += 1
            covered[sl.bias] += 1
        assert np.all(covered == 1)

    def test_flatten_roundtrip(self):
        config, params, _, _ = small_instance()
        again = BackboneParams.from_flat(config, params.flatten())
        np.testing.assert_array_equal(again.flatten(), params.flatten())
        with pytest.raises(ShapeError):
            BackboneParams.from_flat(config, np.zeros(3))

    def test_from_flat_copies_buffers(self):
        config, params, _, _ = small_instance()
        flat = params.flatten()
        rebuilt = BackboneParams.from_flat(config, flat)
        flat[:] = 0.0
        assert not np.all(rebuilt.flatten() == 0.0)


class TestFlatBuffer:
    def test_layer_views_alias_the_buffer(self):
        config, params, _, _ = small_instance()
        before = params.flatten()
        params.blocks[0].weight[0, 1] += 1.0
        params.heads[-1].bias[-1] -= 2.0
        blocks, heads, _ = param_layout(config)
        changed = np.flatnonzero(params.flatten() != before)
        np.testing.assert_array_equal(changed, [blocks[0].weight.start + 1, heads[-1].bias.stop - 1])
        assert np.shares_memory(params.blocks[0].weight, params.buffer)

    def test_flatten_returns_a_copy(self):
        _, params, _, _ = small_instance()
        before = params.flatten()
        flat = params.flatten()
        flat[:] = 7.0
        np.testing.assert_array_equal(params.flatten(), before)

    def test_steps_leave_their_inputs_untouched(self):
        config, params, x, y = small_instance(seed=4)
        before = params.flatten().tobytes()
        grad = batch_weighted_grad(forward_pass(params, x, y), np.full((x.shape[0], config.num_exits), 0.2))
        velocity = np.ones_like(grad)
        stepped, new_velocity = sgd_step(params, grad, 0.1, momentum=0.9, weight_decay=0.01, velocity=velocity)
        plain, _ = sgd_step(params, grad, 0.1)
        pseudo = pseudo_step(params, per_sample_grads(params, x, y), np.ones((x.shape[0], config.num_exits)), 0.1)
        assert params.flatten().tobytes() == before
        assert np.all(velocity == 1.0)
        for out in (stepped, plain, pseudo):
            assert out.flatten().tobytes() != before
            assert not np.shares_memory(out.buffer, params.buffer)
        assert not np.shares_memory(new_velocity, velocity)


class TestLayoutCache:
    def test_layout_is_computed_once_per_shape_and_immutable(self):
        config = BackboneConfig(3, (4, 5), 4)
        shapes = BackboneParams.layer_shapes(config)
        assert layer_slices(shapes) is layer_slices(BackboneParams.layer_shapes(config))
        before = param_layout(config)
        blocks, heads, _ = before
        assert isinstance(blocks, tuple) and isinstance(heads, tuple)
        with pytest.raises(FrozenInstanceError):
            blocks[0].weight = slice(0, 1)
        with pytest.raises(TypeError):
            heads[0] = blocks[0]
        # the layer lists a caller receives belong to its instance alone
        params = BackboneParams.zeros(config)
        params.layers.reverse()
        params.blocks.clear()
        params.heads[0] = params.heads[1]
        assert param_layout(config) == before
        fresh = BackboneParams.zeros(config)
        assert [layer.weight.shape for layer in fresh.layers] == list(shapes)
        assert len(fresh.blocks) == len(fresh.heads) == config.num_exits

    @pytest.mark.parametrize(
        "cls, config",
        [(BackboneParams, BackboneConfig(3, (4, 5), 4)), (WpnParams, WpnConfig(3, hidden_width=6, hidden_depth=2))],
        ids=["backbone", "wpn"],
    )
    def test_same_config_instances_write_only_their_own_buffers(self, cls, config):
        # the layout is shared through the layout cache; the views are not
        total = cls.zeros(config).num_params
        a_buf, b_buf = np.zeros(total), np.ones(total)
        a, b = cls(config, a_buf), cls(config, b_buf)
        for layer in a.layers:
            layer.weight += 2.0
            layer.bias -= 3.0
        last_bias = b.layers[-1].bias
        last_bias[:] = 9.0
        assert a.buffer is a_buf and b.buffer is b_buf
        assert set(np.unique(a_buf)) == {2.0, -3.0}
        np.testing.assert_array_equal(np.flatnonzero(b_buf != 1.0), np.arange(total - last_bias.size, total))
        for la, lb in zip(a.layers, b.layers):
            assert not np.shares_memory(la.weight, b_buf) and not np.shares_memory(lb.bias, a_buf)


class TestInit:
    def test_deterministic_and_seed_sensitive(self):
        config = BackboneConfig(3, (4, 3), 3)
        a = init_params(config, RngStream(1)).flatten()
        b = init_params(config, RngStream(1)).flatten()
        c = init_params(config, RngStream(2)).flatten()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fan_in_bounds_and_zero_biases(self):
        config = BackboneConfig(4, (9, 5), 3)
        params = init_params(config, RngStream(3))
        assert np.all(np.abs(params.blocks[0].weight) <= 1 / np.sqrt(4))
        assert np.all(np.abs(params.blocks[1].weight) <= 1 / np.sqrt(9))
        assert np.all(np.abs(params.heads[1].weight) <= 1 / np.sqrt(5))
        for layer in params.blocks + params.heads:
            np.testing.assert_array_equal(layer.bias, np.zeros_like(layer.bias))


class TestForwardAll:
    def test_matches_straight_line_oracle(self):
        config, params, x, y = small_instance(seed=4)
        outs = forward_all(params, x, y)
        for i in range(x.shape[0]):
            losses, confs = forward_oracle(params, x[i], int(y[i]))
            np.testing.assert_allclose(outs.losses[i], losses, atol=1e-12)
            np.testing.assert_allclose(outs.confidences[i], confs, atol=1e-12)

    def test_probability_structure(self):
        config, params, x, y = small_instance(seed=5, batch=8)
        outs = forward_all(params, x, y)
        np.testing.assert_allclose(outs.probs.sum(axis=2), np.ones((8, config.num_exits)), atol=1e-9)
        np.testing.assert_allclose(outs.confidences, outs.probs.max(axis=2), atol=0)
        np.testing.assert_array_equal(outs.predictions, outs.probs.argmax(axis=2))
        assert outs.batch_size == 8 and outs.num_exits == config.num_exits
        np.testing.assert_array_equal(outs.labels, y)

    def test_zero_heads_give_uniform_probs(self):
        config, params, x, y = small_instance(seed=6)
        for head in params.heads:
            head.weight[:] = 0.0
            head.bias[:] = 0.0
        outs = forward_all(params, x, y)
        c = config.num_classes
        np.testing.assert_allclose(outs.probs, np.full_like(outs.probs, 1.0 / c), atol=1e-12)
        np.testing.assert_allclose(outs.losses, np.full_like(outs.losses, np.log(c)), atol=1e-12)
        np.testing.assert_allclose(outs.confidences, np.full_like(outs.confidences, 1.0 / c), atol=1e-12)

    def test_duplicated_rows_give_identical_outputs(self):
        config, params, x, y = small_instance(seed=7, batch=2)
        xx = np.vstack([x[0], x[0]])
        yy = np.array([y[0], y[0]])
        outs = forward_all(params, xx, yy)
        np.testing.assert_array_equal(outs.losses[0], outs.losses[1])
        np.testing.assert_array_equal(outs.logits[0], outs.logits[1])

    def test_shape_errors(self):
        config, params, x, y = small_instance()
        with pytest.raises(ShapeError):
            forward_all(params, x[:, :2], y)
        with pytest.raises(ShapeError):
            forward_all(params, x, y[:-1])
        with pytest.raises(ShapeError):
            forward_all(params, x, y.astype(np.float64))
        bad = y.copy()
        bad[0] = config.num_classes
        with pytest.raises(ShapeError):
            forward_all(params, x, bad)

    def test_input_errors_name_the_field(self):
        # forward inputs are checked as a Dataset: the error names the field and the label
        config, params, x, y = small_instance()
        bad = y.copy()
        bad[1] = 7
        for forward in (forward_all, forward_pass):
            with pytest.raises(ShapeError, match=r"labels: label 7 out of range \[0, 3\)"):
                forward(params, x, bad)
            with pytest.raises(ShapeError, match="features: need a nonempty 2-D array"):
                forward(params, x[:0], y[:0])


    @pytest.mark.parametrize("widths", [(16,) * 4, (128,) * 4], ids=["16x4", "128x4"])
    @pytest.mark.parametrize("n", [1025, 2049, 10000])
    def test_row_blocks_match_one_whole_batch_pass(self, widths, n):
        # above FORWARD_BLOCK_ROWS rows forward_all runs near-equal row
        # blocks; every output field must be bitwise the whole-batch pass's
        assert n > FORWARD_BLOCK_ROWS
        config = BackboneConfig(16, widths, 8)
        params = init_params(config, RngStream(n).child("params"))
        rng = RngStream(n).child("data")
        x = 3.0 * rng.standard_normal((n, 16))
        y = rng.integers(0, 8, n)
        blocked = forward_all(params, x, y)
        whole = forward_pass(params, x, y).outputs
        for f in fields(ExitOutputs):
            got, want = getattr(blocked, f.name), getattr(whole, f.name)
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name

    def test_row_blocks_validate_the_whole_batch(self):
        config = BackboneConfig(4, (5, 5), 3)
        params = init_params(config, RngStream(8))
        n = 2 * FORWARD_BLOCK_ROWS + 1
        x = RngStream(9).standard_normal((n, 4))
        y = np.zeros(n, dtype=np.int64)
        bad_label = y.copy()
        bad_label[-1] = 3
        with pytest.raises(ShapeError):
            forward_all(params, x, bad_label)
        x[-1, 0] = np.nan
        with pytest.raises(NumericError):
            forward_all(params, x, y)


def two_pass_head(logits: np.ndarray, labels: np.ndarray):
    """The exit head written as separate passes over (B, K, C) logits:
    max-shift softmax, a log-sum-exp with its own row max, then
    probs.max and probs.argmax. Returns (probs, losses, confidences,
    predictions)."""
    b, k, c = logits.shape
    flat = logits.reshape(b * k, c)
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    probs = (e / e.sum(axis=-1, keepdims=True)).reshape(b, k, c)
    m = flat.max(axis=-1, keepdims=True)
    lse = (np.squeeze(m, axis=-1) + np.log(np.exp(flat - m).sum(axis=-1))).reshape(b, k)
    picked = np.take_along_axis(logits, labels[:, None, None], axis=2)[:, :, 0]
    return probs, lse - picked, probs.max(axis=2), probs.argmax(axis=2)


class TestExitHead:
    """The one-pass head must reproduce the two-pass head bit for bit."""

    @pytest.mark.parametrize("c", [2, 3, 10])
    def test_matches_two_pass_head_bitwise(self, c):
        n = FORWARD_BLOCK_ROWS + 77
        config = BackboneConfig(6, (8, 8, 8, 8), c)
        params = init_params(config, RngStream(c).child("params"))
        rng = RngStream(c).child("data")
        x = 3.0 * rng.standard_normal((n, 6))
        x[:40] = 0.0
        x[20:40] = -0.0
        x[40:80, ::2] = -0.0
        y = rng.integers(0, c, n)
        tied, gap, zero = params.heads[0], params.heads[1], params.heads[2]
        # exit 1: classes 0 and 1 give equal logits on every row, 30 above the rest
        tied.weight[1] = tied.weight[0]
        tied.bias[:2] = 30.0
        # exit 2: class c-1 leads by at least 40 on every row
        gap.weight *= 0.01
        gap.bias[-1] = 60.0
        # exit 3: all-zero logits
        zero.weight[:] = 0.0
        zero.bias[:] = 0.0
        for outs in (forward_pass(params, x, y).outputs, forward_all(params, x, y)):
            lg = outs.logits
            assert np.all(lg[:, 0, 0] == lg[:, 0, 1]) and np.all(lg[:, 0, 0] == lg[:, 0].max(axis=1))
            top2 = np.sort(lg[:, 1], axis=1)[:, -2:]
            assert np.all(top2[:, 1] - top2[:, 0] >= 40.0)
            assert np.all(lg[:, 2] == 0.0)
            probs, losses, confidences, predictions = two_pass_head(lg, y)
            assert np.array_equal(outs.probs, probs)
            assert np.array_equal(outs.losses, losses)
            assert np.array_equal(outs.confidences, confidences)
            assert np.array_equal(outs.predictions, predictions)
            assert np.all(outs.predictions[:, 0] == 0) and np.all(outs.confidences[:, 1] == 1.0)


def take_along_axis_gathers(outs: ExitOutputs):
    """losses and confidences read from outs with np.take_along_axis, the
    exit head's earlier gathers."""
    b, k, c = outs.logits.shape
    _, lse = softmax_lse(outs.logits.reshape(b * k, c))
    picked = np.take_along_axis(outs.logits, outs.labels[:, None, None], axis=2)[:, :, 0]
    confidences = np.take_along_axis(outs.probs, outs.predictions[:, :, None], axis=2)[:, :, 0]
    return lse.reshape(b, k) - picked, confidences


class TestGathers:
    """The exit head's fancy-index gathers must equal take_along_axis bit for bit."""

    @staticmethod
    def assert_gathers_match(outs: ExitOutputs):
        losses, confidences = take_along_axis_gathers(outs)
        for got, want in ((outs.losses, losses), (outs.confidences, confidences)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "rows, widths, classes",
        [(1, (5, 5), 3), (9, (5,), 4), (9, (5, 5), 2), (64, (16,) * 4, 8)],
        ids=["one-row", "one-exit", "two-classes", "64-rows"],
    )
    def test_forward_pass(self, rows, widths, classes):
        config = BackboneConfig(6, widths, classes)
        root = RngStream(rows + classes)
        params = init_params(config, root.child("params"))
        x = 3.0 * root.child("x").standard_normal((rows, 6))
        y = root.child("y").integers(0, classes, rows)
        self.assert_gathers_match(forward_pass(params, x, y).outputs)

    def test_blocked_forward_all(self):
        n = FORWARD_BLOCK_ROWS + 1
        config = BackboneConfig(16, (16,) * 4, 8)
        root = RngStream(n)
        params = init_params(config, root.child("params"))
        x = 3.0 * root.child("x").standard_normal((n, 16))
        y = root.child("y").integers(0, 8, n)
        self.assert_gathers_match(forward_all(params, x, y))


class TestPerSampleGrads:
    def test_matches_finite_differences(self):
        config, params, x, y = small_instance(seed=8)
        psg = per_sample_grads(params, x, y)
        fd = fd_loss_grads(params, x, y)
        worst = max(
            rel_err(psg[i, k], fd[i, k])
            for i in range(x.shape[0])
            for k in range(config.num_exits)
        )
        assert worst <= 1e-5

    def test_nested_zero_structure_exact(self):
        config, params, x, y = small_instance(seed=9)
        psg = per_sample_grads(params, x, y)
        blocks, heads, _ = param_layout(config)
        for k in range(config.num_exits):
            for j in range(config.num_exits):
                if j > k:
                    assert np.all(psg[:, k, blocks[j].weight] == 0.0)
                    assert np.all(psg[:, k, blocks[j].bias] == 0.0)
                if j != k:
                    assert np.all(psg[:, k, heads[j].weight] == 0.0)
                    assert np.all(psg[:, k, heads[j].bias] == 0.0)

    def test_mutating_block_j_only_touches_deeper_exits(self):
        config, params, x, y = small_instance(seed=10)
        base = forward_all(params, x, y)
        bumped = params.copy()
        bumped.blocks[1].weight[0, 0] += 0.1
        outs = forward_all(bumped, x, y)
        np.testing.assert_array_equal(outs.losses[:, 0], base.losses[:, 0])
        assert not np.allclose(outs.losses[:, 1], base.losses[:, 1])

    def test_mean_over_samples_equals_batch_gradient(self):
        config, params, x, y = small_instance(seed=11)
        psg = per_sample_grads(params, x, y)
        b = x.shape[0]
        for k in range(config.num_exits):
            coeffs = np.zeros((b, config.num_exits))
            coeffs[:, k] = 1.0 / b
            batch_grad = batch_weighted_grad(forward_pass(params, x, y), coeffs)
            np.testing.assert_allclose(psg[:, k].mean(axis=0), batch_grad, atol=1e-12)


class TestGradWeightedLoss:
    def test_selector_weights_pick_one_gradient_row(self):
        config, params, x, y = small_instance(seed=13)
        psg = per_sample_grads(params, x, y)
        b = x.shape[0]
        w = np.zeros((b, config.num_exits))
        w[2, 1] = 1.0
        np.testing.assert_allclose(grad_weighted_loss(psg, w), psg[2, 1] / b, atol=1e-15)

    def test_ones_equal_unweighted_gradient(self):
        config, params, x, y = small_instance(seed=14)
        psg = per_sample_grads(params, x, y)
        ones = np.ones((x.shape[0], config.num_exits))
        np.testing.assert_allclose(
            grad_weighted_loss(psg, ones),
            batch_weighted_grad(forward_pass(params, x, y), ones / x.shape[0]),
            atol=1e-12,
        )

    def test_matches_fd_on_weighted_loss(self):
        config, params, x, y = small_instance(seed=15, batch=4)
        rng = np.random.default_rng(15)
        b = x.shape[0]
        w = rng.uniform(0.5, 1.5, (b, config.num_exits))
        psg = per_sample_grads(params, x, y)
        grad = grad_weighted_loss(psg, w)
        flat = params.flatten()
        fd = np.empty_like(flat)
        for p in range(flat.shape[0]):
            step = 1e-5 * max(1.0, abs(flat[p]))
            up, dn = flat.copy(), flat.copy()
            up[p] += step
            dn[p] -= step
            lu, ld = (np.sum(w * forward_all(BackboneParams.from_flat(config, v), x, y).losses) / b
                      for v in (up, dn))
            fd[p] = (lu - ld) / (2 * step)
        assert rel_err(grad, fd) <= 1e-5

    def test_dual_routes_agree(self):
        # dense per-sample route vs fused coefficient route
        config, params, x, y = small_instance(seed=16, batch=6)
        rng = np.random.default_rng(16)
        w = rng.uniform(-1.0, 2.0, (6, config.num_exits))
        psg = per_sample_grads(params, x, y)
        dense = grad_weighted_loss(psg, w)
        fused = batch_weighted_grad(forward_pass(params, x, y), w / x.shape[0])
        np.testing.assert_allclose(dense, fused, atol=1e-13)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            grad_weighted_loss(np.zeros((2, 2, 5)), np.zeros((2, 3)))
        config, params, x, y = small_instance()
        fp = forward_pass(params, x, y)
        with pytest.raises(ShapeError):
            batch_weighted_grad(fp, np.zeros((2, 2)))


def dense_dots(params, x, y, vec):
    return np.einsum("bkp,p->bk", per_sample_grads(params, x, y), vec)


def random_biases(params, rng):
    for layer in [*params.blocks, *params.heads]:
        layer.bias[:] = rng.uniform(-0.5, 0.5, layer.bias.shape)


class TestPerSampleGradDots:
    CONFIGS = (
        BackboneConfig(3, (4, 3), 3),
        BackboneConfig(5, (6,), 4),  # K = 1
        BackboneConfig(4, (9, 2, 7, 5), 3),  # unequal widths, a 2-wide bottleneck
        BackboneConfig(16, (32, 32, 32, 32), 8),
    )

    def test_matches_dense_contraction(self):
        rng = np.random.default_rng(40)
        for n, config in enumerate(self.CONFIGS):
            _, params, x, y = small_instance(seed=40 + n, config=config, batch=9)
            random_biases(params, rng)
            vec = rng.standard_normal(param_layout(config)[2])
            out = per_sample_grad_dots(forward_pass(params, x, y), vec)
            assert out.shape == (9, config.num_exits)
            np.testing.assert_allclose(out, dense_dots(params, x, y, vec), rtol=0, atol=1e-13)

    def test_rows_with_dead_first_block(self):
        # rows 0-2 switch off every first-block rectifier; deeper blocks
        # still fire on their biases alone
        config = BackboneConfig(3, (4, 3, 5), 3)
        _, params, x, y = small_instance(seed=41, config=config, batch=7)
        rng = np.random.default_rng(41)
        random_biases(params, rng)
        params.blocks[0].weight[:] = np.abs(params.blocks[0].weight)
        params.blocks[0].bias[:] = -0.1
        for blk in params.blocks[1:]:
            blk.bias[:] = rng.uniform(0.2, 0.6, blk.bias.shape)
        x[:3] = -np.abs(x[:3])
        z1 = x @ params.blocks[0].weight.T + params.blocks[0].bias
        assert np.all(z1[:3] <= 0) and np.any(z1[3:] > 0)
        vec = rng.standard_normal(param_layout(config)[2])
        np.testing.assert_allclose(
            per_sample_grad_dots(forward_pass(params, x, y), vec), dense_dots(params, x, y, vec), rtol=0, atol=1e-13
        )

    def test_vec_on_biases_only(self):
        config = BackboneConfig(4, (9, 2, 7, 5), 3)
        _, params, x, y = small_instance(seed=42, config=config, batch=8)
        rng = np.random.default_rng(42)
        random_biases(params, rng)
        blocks, heads, total = param_layout(config)
        vec = np.zeros(total)
        for sl in [*blocks, *heads]:
            vec[sl.bias] = rng.standard_normal(sl.bias.stop - sl.bias.start)
        np.testing.assert_allclose(
            per_sample_grad_dots(forward_pass(params, x, y), vec), dense_dots(params, x, y, vec), rtol=0, atol=1e-13
        )

    def test_vec_on_one_head_only(self):
        config = BackboneConfig(4, (6, 5, 3), 4)
        _, params, x, y = small_instance(seed=43, config=config, batch=6)
        rng = np.random.default_rng(43)
        random_biases(params, rng)
        _, heads, total = param_layout(config)
        for k, sl in enumerate(heads):
            vec = np.zeros(total)
            vec[sl.weight.start : sl.bias.stop] = rng.standard_normal(sl.bias.stop - sl.weight.start)
            out = per_sample_grad_dots(forward_pass(params, x, y), vec)
            np.testing.assert_allclose(out, dense_dots(params, x, y, vec), rtol=0, atol=1e-13)
            # only exit k's loss touches head k
            others = [j for j in range(config.num_exits) if j != k]
            assert np.all(out[:, others] == 0.0)
            assert np.any(out[:, k] != 0.0)

    def test_shape_error_on_wrong_vec(self):
        config, params, x, y = small_instance(seed=44)
        total = param_layout(config)[2]
        fp = forward_pass(params, x, y)
        for bad in (np.zeros(total - 1), np.zeros(total + 1), np.zeros((total, 1))):
            with pytest.raises(ShapeError):
                per_sample_grad_dots(fp, bad)


class TestUpdates:
    def test_sgd_zero_lr_and_zero_grad(self):
        config, params, _, _ = small_instance(seed=17)
        flat = params.flatten()
        same, vel = sgd_step(params, np.zeros_like(flat), lr=0.0)
        np.testing.assert_array_equal(same.flatten(), flat)
        same2, vel2 = sgd_step(params, np.zeros_like(flat), lr=0.5)
        np.testing.assert_array_equal(same2.flatten(), flat)
        assert vel is None and vel2 is None

    def test_sgd_scalar_example(self):
        # theta=1, grad=2, lr=0.1, no momentum -> 0.8
        config = BackboneConfig(1, (1,), 2)
        params = BackboneParams.from_flat(config, np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        grad = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        new, _ = sgd_step(params, grad, lr=0.1)
        np.testing.assert_allclose(new.flatten()[0], 0.8, atol=1e-15)

    def test_sgd_momentum_and_decay_transcription(self):
        config, params, x, y = small_instance(seed=18)
        rng = np.random.default_rng(18)
        flat = params.flatten()
        grad = rng.standard_normal(flat.shape)
        lr, mom, wd = 0.05, 0.9, 0.01
        # first step
        p1, v1 = sgd_step(params, grad, lr, mom, wd, None)
        g = grad + wd * flat
        np.testing.assert_allclose(v1, g, atol=0)
        np.testing.assert_allclose(p1.flatten(), flat - lr * g, atol=0)
        # second step accumulates the velocity
        grad2 = rng.standard_normal(flat.shape)
        p2, v2 = sgd_step(p1, grad2, lr, mom, wd, v1)
        g2 = grad2 + wd * p1.flatten()
        np.testing.assert_allclose(v2, mom * v1 + g2, atol=0)
        np.testing.assert_allclose(p2.flatten(), p1.flatten() - lr * v2, atol=0)

    def test_pseudo_step_matches_momentum_free_sgd_on_ones(self):
        config, params, x, y = small_instance(seed=19)
        psg = per_sample_grads(params, x, y)
        ones = np.ones((x.shape[0], config.num_exits))
        via_pseudo = pseudo_step(params, psg, ones, alpha=0.2)
        via_sgd, _ = sgd_step(params, grad_weighted_loss(psg, ones), lr=0.2)
        np.testing.assert_array_equal(via_pseudo.flatten(), via_sgd.flatten())

    def test_pseudo_step_alpha_zero_is_identity_and_pure(self):
        config, params, x, y = small_instance(seed=20)
        psg = per_sample_grads(params, x, y)
        w = np.ones((x.shape[0], config.num_exits))
        before = params.flatten()
        out = pseudo_step(params, psg, w, alpha=0.0)
        np.testing.assert_array_equal(out.flatten(), before)
        np.testing.assert_array_equal(params.flatten(), before)
        again = pseudo_step(params, psg, w, alpha=0.3)
        np.testing.assert_array_equal(again.flatten(), pseudo_step(params, psg, w, alpha=0.3).flatten())

    def test_pseudo_step_single_entry_perturbation_algebra(self):
        # bumping w[i,k] by eps moves params by exactly -(alpha*eps/N)*psg[i,k]
        config, params, x, y = small_instance(seed=21)
        psg = per_sample_grads(params, x, y)
        w = np.ones((x.shape[0], config.num_exits))
        alpha, eps, i, k = 0.1, 0.37, 1, 1
        base = pseudo_step(params, psg, w, alpha).flatten()
        w2 = w.copy()
        w2[i, k] += eps
        moved = pseudo_step(params, psg, w2, alpha).flatten()
        np.testing.assert_allclose(moved - base, -(alpha * eps / x.shape[0]) * psg[i, k], atol=1e-14)


class TestCostModel:
    def test_hand_counts(self):
        # input 2, widths [4], C=3 -> [2*4 + 4*3] = [20]
        np.testing.assert_array_equal(count_mul_adds(BackboneConfig(2, (4,), 3)), [20])
        # input 3, widths [4, 5, 2], C=3: trunk prefix sums 12, 12+20, 12+20+10
        costs = count_mul_adds(BackboneConfig(3, (4, 5, 2), 3))
        np.testing.assert_array_equal(costs, [12 + 12, 32 + 15, 42 + 6])

    def test_strictly_increasing_when_width_at_least_class_ratio(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            config = BackboneConfig(
                int(rng.integers(1, 10)),
                tuple(int(v) for v in rng.integers(1, 12, k)),
                int(rng.integers(2, 6)),
            )
            costs = count_mul_adds(config)
            prefix = np.cumsum(
                [config.input_dim * config.trunk_widths[0]]
                + [config.trunk_widths[j] * config.trunk_widths[j + 1] for j in range(k - 1)]
            )
            expected = prefix + np.array(config.trunk_widths) * config.num_classes
            np.testing.assert_array_equal(costs, expected)
            assert costs.dtype == np.int64
