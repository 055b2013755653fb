"""Multi-exit backbone checks.

The forward pass is compared against a straight-line reimplementation
written with elementary loops, per-sample gradients against central
finite differences, and the update rules against direct transcriptions
of their formulas. The dense per-sample gradient route, the fused
coefficient route and the layer-by-layer inner-product route are
cross-checked against each other; the dense route must also agree with
the oracles independently.
"""

import ast
import inspect
import math
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from functools import cached_property
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import exitweave.backbone as backbone_module
from exitweave.backbone import (
    FORWARD_BLOCK_ROWS,
    Affine,
    BackboneConfig,
    BackboneParams,
    ExitOutputs,
    ForwardPass,
    _tops_grad,
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
from exitweave.wpn import WpnConfig, WpnParams, init_wpn, wpn_backward, wpn_weights


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

    @pytest.mark.parametrize("widths", ["44", b"44", (16.9, 16), (16, math.nan), (16, math.inf), (None,)],
                             ids=["str", "bytes", "fraction", "nan", "inf", "none-entry"])
    def test_refuses_widths_that_are_not_whole_numbers(self, widths):
        # "44" read as two widths of 4, and 16.9 truncated to 16
        with pytest.raises(ConfigError, match=r"^trunk_widths: cannot read .* as tuple\[int, \.\.\.\]$"):
            BackboneConfig(16, widths, 8)

    def test_whole_scalars_become_ints(self):
        config = BackboneConfig(np.int64(16), (4,), 3.0)
        assert (config.input_dim, config.num_classes) == (16, 3)
        assert type(config.input_dim) is int and type(config.num_classes) is int

    def test_whole_widths_of_any_number_type_become_ints(self):
        config = BackboneConfig(16, [np.int64(16), 8.0, "1"], 8)
        assert config.trunk_widths == (16, 8, 1) and all(type(w) is int for w in config.trunk_widths)

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
    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float16, np.complex128, np.dtype(">f8")],
                             ids=["float32", "int64", "float16", "complex128", "big-endian-float64"])
    @pytest.mark.parametrize("config", [BackboneConfig(3, (4, 3), 3), WpnConfig(2, hidden_width=5)],
                             ids=["backbone", "wpn"])
    def test_refuses_a_buffer_that_is_not_float64(self, config, dtype):
        # a float32 buffer would round every in-place write, and an int64 one
        # make sgd_step raise numpy's casting error
        cls = BackboneParams if isinstance(config, BackboneConfig) else WpnParams
        n = layer_slices(cls.layer_shapes(config))[1]
        with pytest.raises(ShapeError, match=f"^parameter buffer has dtype {np.dtype(dtype)}, expected float64$"):
            cls(config, np.zeros(n, dtype=dtype))

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
        # sgd_step writes only params and the velocity, in place; pseudo_step writes nothing it is given
        config, params, x, y = small_instance(seed=4)
        buffer, theta = params.buffer, params.flatten()
        grad = batch_weighted_grad(forward_pass(params, x, y), np.full((x.shape[0], config.num_exits), 0.2),
                                   BackboneParams.zeros(config))
        grad_before = grad.copy()
        velocity = np.ones_like(grad)
        stepped, new_velocity = sgd_step(params, grad, 0.1, momentum=0.9, weight_decay=0.01, velocity=velocity)
        assert stepped is params and params.buffer is buffer and new_velocity is velocity
        v = 0.9 * np.ones_like(grad) + (grad_before + 0.01 * theta)
        np.testing.assert_allclose(velocity, v, atol=0)
        np.testing.assert_allclose(params.flatten(), theta - 0.1 * v, atol=0)
        assert np.shares_memory(params.blocks[0].weight, buffer)
        theta = params.flatten()
        plain, no_velocity = sgd_step(params, grad, 0.1)
        assert plain is params and no_velocity is None
        np.testing.assert_allclose(params.flatten(), theta - 0.1 * grad_before, atol=0)
        assert grad.tobytes() == grad_before.tobytes()
        before = params.flatten().tobytes()
        pseudo = pseudo_step(params, per_sample_grads(params, x, y), np.ones((x.shape[0], config.num_exits)), 0.1)
        assert params.flatten().tobytes() == before
        assert pseudo.flatten().tobytes() != before
        assert not np.shares_memory(pseudo.buffer, params.buffer)

    @pytest.mark.parametrize("config", [BackboneConfig(3, (4, 3), 3), BackboneConfig(2, (5, 1, 4), 4)])
    def test_every_entry_is_written_over_stale_contents(self, config):
        # written through out's views over NaN or inf: bitwise the gradient written into a zero buffer
        _, params, x, y = small_instance(seed=6, config=config, batch=7)
        fp = forward_pass(params, x, y)
        coeffs = RngStream(6).child("c").standard_normal((7, config.num_exits))
        out = BackboneParams(config, np.full(params.num_params, np.nan))
        got = batch_weighted_grad(fp, coeffs, out)
        assert got is out.buffer
        assert got.tobytes() == batch_weighted_grad(fp, coeffs, BackboneParams.zeros(config)).tobytes()
        wpn = init_wpn(WpnConfig(config.num_exits, hidden_width=5, hidden_depth=2), RngStream(6).child("w"))
        wpn_pass = wpn_weights(wpn, fp.outputs.losses)
        probe = RngStream(6).child("p").standard_normal(wpn_pass.weights.shape)
        wpn_out = WpnParams(wpn.config, np.full(wpn.num_params, np.inf))
        got = wpn_backward(wpn_pass, probe, wpn_out)
        assert got is wpn_out.buffer
        assert got.tobytes() == wpn_backward(wpn_pass, probe, WpnParams.zeros(wpn.config)).tobytes()


class TestHeadRegion:
    """Head gradients are written in place and normalized once over the
    head region, the tail of the flat buffer that holds every head."""

    @pytest.mark.parametrize("params", [
        BackboneParams.zeros(BackboneConfig(3, (4, 2, 5), 3)),
        WpnParams.zeros(WpnConfig(3, hidden_width=6, hidden_depth=2)),
    ])
    def test_region_is_every_head_and_nothing_else(self, params):
        assert np.shares_memory(params.head_region, params.buffer)
        assert params.head_region.size == sum(h.weight.size + h.bias.size for h in params.heads)
        params.head_region[:] = 1.0
        assert all(np.all(h.weight == 1.0) and np.all(h.bias == 1.0) for h in params.heads)
        assert all(np.all(b.weight == 0.0) and np.all(b.bias == 0.0) for b in params.blocks)

    def test_weight_network_head_gets_positive_zeros(self):
        # the backbone's case is TestBlockSweep::test_selection_coefficients_on_one_label;
        # the weight network's one head under an all -0.0 error, written
        # over stale NaNs, gets +0.0 everywhere, as a zero buffer would
        _, params, x, y = small_instance(seed=95, config=BackboneConfig(4, (6, 3, 5), 3), batch=9)
        wpn = init_wpn(WpnConfig(3, hidden_width=5, hidden_depth=2), RngStream(95).child("w"))
        wpn_pass = wpn_weights(wpn, forward_pass(params, x, y).outputs.losses)
        out = WpnParams(wpn.config, np.full(wpn.num_params, np.nan))
        _tops_grad(wpn_pass, np.full((1, 9, 3), -0.0), out)
        assert np.all(out.buffer == 0.0) and not np.signbit(out.buffer).any()


class TestLayoutCache:
    def test_layout_is_computed_once_per_shape_and_immutable(self):
        config = BackboneConfig(3, (4, 5), 4)
        shapes = BackboneParams.layer_shapes(config)
        # equal configs share one shape tuple, and that tuple one layout
        assert BackboneParams.layer_shapes(BackboneConfig(3, [4, 5], 4)) is shapes
        wpn_config = WpnConfig(3, hidden_width=6, hidden_depth=2)
        assert WpnParams.layer_shapes(WpnConfig(3, hidden_width=6, hidden_depth=2)) is WpnParams.layer_shapes(wpn_config)
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


def pass_logits(fp: ForwardPass) -> np.ndarray:
    """The pass's (B, K, C) logits, from its trunk activations and heads
    by np.add(h @ W.T, b), which rounds as `head_forward` does."""
    return np.stack([np.add(h @ head.weight.T, head.bias) for h, head in zip(fp.hs[1:], fp.params.heads)], axis=1)


def pass_probs(fp: ForwardPass) -> np.ndarray:
    """The pass's (B, K, C) probabilities: the softmax of `pass_logits`."""
    logits = pass_logits(fp)
    b, k, c = logits.shape
    return softmax_lse(logits.reshape(b * k, c))[0].reshape(b, k, c)


def assert_same_outputs(got: ExitOutputs, want: ExitOutputs):
    """Every field of got is bitwise want's, with its dtype and shape."""
    for f in fields(ExitOutputs):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name


class TestForwardAll:
    def test_matches_straight_line_oracle(self):
        config, params, x, y = small_instance(seed=4)
        outs = forward_all(params, x, y)
        for i in range(x.shape[0]):
            losses, confs = forward_oracle(params, x[i], int(y[i]))
            np.testing.assert_allclose(outs.losses[i], losses, atol=1e-12)
            np.testing.assert_allclose(outs.confidences[i], confs, atol=1e-12)

    def test_outputs_hold_only_what_is_scored(self):
        assert [f.name for f in fields(ExitOutputs)] == ["losses", "confidences", "predictions", "labels"]

    def test_probability_structure(self):
        config, params, x, y = small_instance(seed=5, batch=8)
        fp = forward_pass(params, x, y)
        outs = forward_all(params, x, y)
        assert_same_outputs(outs, fp.outputs)
        probs = pass_probs(fp)
        np.testing.assert_allclose(probs.sum(axis=2), np.ones((8, config.num_exits)), atol=1e-9)
        np.testing.assert_allclose(outs.confidences, probs.max(axis=2), atol=0)
        np.testing.assert_array_equal(outs.predictions, probs.argmax(axis=2))
        assert outs.batch_size == 8 and outs.num_exits == config.num_exits
        np.testing.assert_array_equal(outs.labels, y)

    def test_zero_heads_give_uniform_probs(self):
        config, params, x, y = small_instance(seed=6)
        for head in params.heads:
            head.weight[:] = 0.0
            head.bias[:] = 0.0
        fp = forward_pass(params, x, y)
        outs = forward_all(params, x, y)
        assert_same_outputs(outs, fp.outputs)
        c = config.num_classes
        probs = pass_probs(fp)
        np.testing.assert_allclose(probs, np.full_like(probs, 1.0 / c), atol=1e-12)
        np.testing.assert_allclose(outs.losses, np.full_like(outs.losses, np.log(c)), atol=1e-12)
        np.testing.assert_allclose(outs.confidences, np.full_like(outs.confidences, 1.0 / c), atol=1e-12)

    def test_duplicated_rows_give_identical_outputs(self):
        config, params, x, y = small_instance(seed=7, batch=2)
        xx = np.vstack([x[0], x[0]])
        yy = np.array([y[0], y[0]])
        fp = forward_pass(params, xx, yy)
        outs = forward_all(params, xx, yy)
        assert_same_outputs(outs, fp.outputs)
        np.testing.assert_array_equal(outs.losses[0], outs.losses[1])
        logits = pass_logits(fp)
        np.testing.assert_array_equal(logits[0], logits[1])

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
        assert_same_outputs(forward_all(params, x, y), forward_pass(params, x, y).outputs)

    @pytest.mark.parametrize(
        "n", [1, FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS + 1, 3 * FORWARD_BLOCK_ROWS + 77],
        ids=["one-row", "one-block", "two-blocks", "four-blocks"],
    )
    def test_block_boundaries_match_forward_pass(self, n):
        # unequal widths give each block's layers several shapes, and
        # the last of four near-equal blocks holds one row fewer
        config = BackboneConfig(5, (12, 7, 9), 4)
        root = RngStream(n)
        params = init_params(config, root.child("params"))
        x = 3.0 * root.child("x").standard_normal((n, 5))
        y = root.child("y").integers(0, 4, n)
        assert_same_outputs(forward_all(params, x, y), forward_pass(params, x, y).outputs)

    def test_peak_memory_holds_no_class_sized_outputs(self):
        # the (n, K, C) logits and probs of 8,192 rows at 100 classes take
        # 26 MB each; forward_all may hold only one block's activations,
        # logits and softmax, and the (n, K) outputs
        n, widths, classes = 8 * FORWARD_BLOCK_ROWS, (64,) * 4, 100
        config = BackboneConfig(16, widths, classes)
        root = RngStream(11)
        params = init_params(config, root.child("params"))
        x = root.child("x").standard_normal((n, 16))
        y = root.child("y").integers(0, classes, n)
        k, f64 = config.num_exits, 8
        trunk = FORWARD_BLOCK_ROWS * sum(widths) * f64
        block_logits = FORWARD_BLOCK_ROWS * k * classes * f64
        outputs = 3 * n * k * f64
        bound = trunk + 2 * block_logits + outputs + 2**20  # 1 MiB for small temporaries
        assert bound < 14e6 < 2 * n * k * classes * f64
        forward_all(params, x, y)  # first call: imports and caches settle outside the trace
        tracemalloc.start()
        try:
            forward_all(params, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

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


def block_instance(n: int, seed: int):
    """A 16x4, 8-class backbone and an n-row batch."""
    config = BackboneConfig(16, (16,) * 4, 8)
    root = RngStream(seed)
    params = init_params(config, root.child("params"))
    x = 3.0 * root.child("x").standard_normal((n, 16))
    return params, x, root.child("y").integers(0, 8, n)


class TestForwardWorkers:
    """forward_all's row blocks run on up to FORWARD_WORKERS threads; the
    outputs and errors must not depend on how many."""

    @pytest.mark.parametrize("n", [1, FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS + 1, 2051,
                                   3 * FORWARD_BLOCK_ROWS + 77, 10000])
    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch, n):
        params, x, y = block_instance(n, n)
        want = forward_pass(params, x, y).outputs
        for workers in (2, 1):  # two even on a one-CPU machine
            monkeypatch.setattr(backbone_module, "FORWARD_WORKERS", workers)
            assert_same_outputs(forward_all(params, x, y), want)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_an_overflow_in_a_late_block_raises_the_serial_error(self, monkeypatch):
        params, x, y = block_instance(4 * FORWARD_BLOCK_ROWS, 21)
        params.blocks[0].weight[:] = 1e200
        x[-5:] = 1e300  # finite inputs whose trunk overflows, in the last of four blocks only
        forward_pass(params, x[:-5], y[:-5])  # the other rows raise nothing
        raised = []
        for workers in (1, 2):
            monkeypatch.setattr(backbone_module, "FORWARD_WORKERS", workers)
            before = threading.active_count()
            with pytest.raises(NumericError) as info:
                forward_all(params, x, y)
            assert threading.active_count() == before
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == (NumericError, "logits contains non-finite entries")

    def test_two_callers_at_once_get_their_serial_results(self, monkeypatch):
        monkeypatch.setattr(backbone_module, "FORWARD_WORKERS", 2)
        cases = [block_instance(3 * FORWARD_BLOCK_ROWS + 77, 31), block_instance(2051, 32)]
        want = [forward_all(*case) for case in cases]
        got = [[] for _ in cases]

        def call(i):
            for _ in range(5):
                got[i].append(forward_all(*cases[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for outs, expected in zip(got, want):
            assert len(outs) == 5
            for out in outs:
                assert_same_outputs(out, expected)


class TestForwardPass:
    def test_memory_held_is_the_activations_and_the_exit_arrays(self):
        # the pass keeps one array per trunk layer, its output; the ReLU
        # mask of a backward sweep is read from it, so no pre-activation
        # of 4,096 rows x 256 units (8.4 MB a layer) stays alive
        n, widths, classes = 4096, (256,) * 4, 8
        config = BackboneConfig(16, widths, classes)
        root = RngStream(12)
        params = init_params(config, root.child("params"))
        x = root.child("x").standard_normal((n, 16))
        y = root.child("y").integers(0, classes, n)
        k, f64 = config.num_exits, 8
        hs = n * (config.input_dim + sum(widths)) * f64
        logits_probs = 2 * n * k * classes * f64
        bound = hs + logits_probs + 2**20  # 1 MiB for the (n, K) outputs and labels
        assert bound < hs + n * sum(widths) * f64  # below what keeping pre-activations too would hold
        # a backward sweep adds the cached ReLU masks (one byte a unit) and
        # no second class-sized array: the pass keeps the logit errors alone
        masks, exit_array = n * sum(widths), n * k * classes * f64
        swept_bound = hs + masks + exit_array + 2**19  # 0.5 MiB for the (n, K) outputs and labels
        coeffs = np.full((n, k), 1.0 / n)
        out = BackboneParams.zeros(config)  # the caller's buffer, outside the trace
        batch_weighted_grad(forward_pass(params, x, y), coeffs, out)  # imports and caches settle outside the trace
        tracemalloc.start()
        try:
            fp = forward_pass(params, x, y)
            held, _ = tracemalloc.get_traced_memory()
            batch_weighted_grad(fp, coeffs, out)
            swept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fp.hs) == config.num_exits + 1
        assert held <= bound, f"held {held / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
        assert swept <= swept_bound, f"held {swept / 1e6:.2f} MB after a sweep, bound {swept_bound / 1e6:.2f} MB"

    @pytest.mark.parametrize(
        "rows, widths, classes",
        [(1, (5, 5), 3), (9, (5,), 4), (33, (7, 6, 5), 2), (64, (16,) * 4, 8)],
        ids=["one-row", "one-exit", "two-classes", "64-rows"],
    )
    def test_logit_errors_are_the_probabilities_minus_the_one_hot(self, rows, widths, classes):
        # exit-major softmax - onehot, bit for bit, signed zeros included: the
        # last exit's last class leads by hundreds, so its other probabilities
        # are exactly 0.0 and its rows labelled with that class have error 0.0
        config = BackboneConfig(6, widths, classes)
        root = RngStream(rows * classes)
        params = init_params(config, root.child("params"))
        params.heads[-1].bias[-1] = 1000.0
        x = 3.0 * root.child("x").standard_normal((rows, 6))
        y = root.child("y").integers(0, classes, rows)
        y[0] = classes - 1
        fp = forward_pass(params, x, y)
        onehot = np.zeros((rows, classes))
        onehot[np.arange(rows), y] = 1.0
        probs = pass_probs(fp)
        want = np.subtract(probs.transpose(1, 0, 2), onehot)
        assert np.all(probs[:, -1, :-1] == 0.0) and want[-1, 0, -1] == 0.0
        errors = fp.logit_errors
        assert errors.dtype == want.dtype and errors.shape == want.shape and errors.flags.c_contiguous
        assert errors.tobytes() == want.tobytes()

    def test_pass_keeps_no_probabilities(self):
        names = [f.name for f in fields(ForwardPass)]
        assert names == ["params", "hs", "outputs", "logit_errors"]
        assert not [name for name, value in vars(ForwardPass).items() if isinstance(value, cached_property)]


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
        fp = forward_pass(params, x, y)
        assert_same_outputs(forward_all(params, x, y), fp.outputs)
        lg, outs = pass_logits(fp), fp.outputs
        assert np.all(lg[:, 0, 0] == lg[:, 0, 1]) and np.all(lg[:, 0, 0] == lg[:, 0].max(axis=1))
        top2 = np.sort(lg[:, 1], axis=1)[:, -2:]
        assert np.all(top2[:, 1] - top2[:, 0] >= 40.0)
        assert np.all(lg[:, 2] == 0.0)
        probs, losses, confidences, predictions = two_pass_head(lg, y)
        assert np.array_equal(pass_probs(fp), probs)
        assert np.array_equal(outs.losses, losses)
        assert np.array_equal(outs.confidences, confidences)
        assert np.array_equal(outs.predictions, predictions)
        assert np.all(outs.predictions[:, 0] == 0) and np.all(outs.confidences[:, 1] == 1.0)


def take_along_axis_gathers(fp: ForwardPass):
    """losses and confidences read from the pass's logits and probs with
    np.take_along_axis, the exit head's earlier gathers."""
    outs, logits = fp.outputs, pass_logits(fp)
    b, k, c = logits.shape
    _, lse = softmax_lse(logits.reshape(b * k, c))
    picked = np.take_along_axis(logits, outs.labels[:, None, None], axis=2)[:, :, 0]
    confidences = np.take_along_axis(pass_probs(fp), outs.predictions[:, :, None], axis=2)[:, :, 0]
    return lse.reshape(b, k) - picked, confidences


class TestGathers:
    """The exit head's fancy-index gathers must equal take_along_axis bit for bit."""

    @staticmethod
    def assert_gathers_match(fp: ForwardPass, outs: ExitOutputs):
        losses, confidences = take_along_axis_gathers(fp)
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
        fp = forward_pass(params, x, y)
        self.assert_gathers_match(fp, fp.outputs)

    def test_blocked_forward_all(self):
        n = FORWARD_BLOCK_ROWS + 1
        config = BackboneConfig(16, (16,) * 4, 8)
        root = RngStream(n)
        params = init_params(config, root.child("params"))
        x = 3.0 * root.child("x").standard_normal((n, 16))
        y = root.child("y").integers(0, 8, n)
        fp = forward_pass(params, x, y)
        outs = forward_all(params, x, y)
        assert_same_outputs(outs, fp.outputs)
        self.assert_gathers_match(fp, outs)


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
            batch_grad = batch_weighted_grad(forward_pass(params, x, y), coeffs, BackboneParams.zeros(config))
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
            batch_weighted_grad(forward_pass(params, x, y), ones / x.shape[0], BackboneParams.zeros(config)),
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
        fused = batch_weighted_grad(forward_pass(params, x, y), w / x.shape[0], BackboneParams.zeros(config))
        np.testing.assert_allclose(dense, fused, atol=1e-13)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            grad_weighted_loss(np.zeros((2, 2, 5)), np.zeros((2, 3)))
        config, params, x, y = small_instance()
        fp = forward_pass(params, x, y)
        with pytest.raises(ShapeError):
            batch_weighted_grad(fp, np.zeros((2, 2)), BackboneParams.zeros(config))


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
            out = per_sample_grad_dots(forward_pass(params, x, y), BackboneParams(config, vec))
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
            per_sample_grad_dots(forward_pass(params, x, y), BackboneParams(config, vec)),
            dense_dots(params, x, y, vec), rtol=0, atol=1e-13,
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
            per_sample_grad_dots(forward_pass(params, x, y), BackboneParams(config, vec)),
            dense_dots(params, x, y, vec), rtol=0, atol=1e-13,
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
            out = per_sample_grad_dots(forward_pass(params, x, y), BackboneParams(config, vec))
            np.testing.assert_allclose(out, dense_dots(params, x, y, vec), rtol=0, atol=1e-13)
            # only exit k's loss touches head k
            others = [j for j in range(config.num_exits) if j != k]
            assert np.all(out[:, others] == 0.0)
            assert np.any(out[:, k] != 0.0)

    def test_shape_error_on_wrong_vec(self):
        config, params, x, y = small_instance(seed=44)
        fp = forward_pass(params, x, y)
        wider = BackboneConfig(config.input_dim + 1, config.trunk_widths, config.num_classes)
        shallower = BackboneConfig(config.input_dim, config.trunk_widths[:-1], config.num_classes)
        for bad in (wider, shallower):
            with pytest.raises(ShapeError, match="layout"):
                per_sample_grad_dots(fp, BackboneParams.zeros(bad))


def forward_with_preactivations(layers: list[Affine], x: np.ndarray):
    """hs and the explicit pre-activations zs of a dense ReLU stack."""
    hs, zs = [x], []
    for layer in layers:
        zs.append(hs[-1] @ layer.weight.T + layer.bias)
        hs.append(np.maximum(zs[-1], 0.0))
    return hs, zs


def masked_sweep(layers: list[Affine], zs: list[np.ndarray], dz: np.ndarray):
    """The reverse sweep with the ReLU mask taken from the pre-activations, zs[j - 1] > 0."""
    for j in range(len(layers) - 1, -1, -1):
        yield j, dz
        if j:
            dz = (dz @ layers[j].weight) * (zs[j - 1] > 0)


def sweep_into(layers, hs, zs, dz, grads):
    """Add one masked sweep's parameter gradient into grads: layer j gets dz_j^T hs[j] and dz_j's column sums."""
    for j, dz_j in masked_sweep(layers, zs, dz):
        grads[j].weight += dz_j.T @ hs[j]
        grads[j].bias += dz_j.sum(axis=0)


def per_exit_weighted_grad(params, fp, hs, zs, coeffs):
    """`batch_weighted_grad` as one masked sweep per exit, added into a zero buffer in exit order."""
    want = BackboneParams.zeros(params.config)
    for k, dlog in enumerate(fp.logit_errors):
        path = [*params.blocks[: k + 1], params.heads[k]]
        grads = [*want.blocks[: k + 1], want.heads[k]]
        sweep_into(path, hs, zs, coeffs[:, k : k + 1] * dlog, grads)
    return want.buffer


def per_exit_grad_dots(params, fp, hs, zs, vec):
    """`per_sample_grad_dots` as one masked sweep per exit, each summing its layers' terms from the head down."""
    v = BackboneParams(params.config, vec)
    proj = [hs[j] @ layer.weight.T + layer.bias for j, layer in enumerate(v.blocks)]
    want = np.empty((fp.outputs.batch_size, params.config.num_exits))
    for k, dlog in enumerate(fp.logit_errors):
        terms = [*proj[: k + 1], hs[k + 1] @ v.heads[k].weight.T + v.heads[k].bias]
        path = [*params.blocks[: k + 1], params.heads[k]]
        want[:, k] = sum(np.einsum("bo,bo->b", dz, terms[j]) for j, dz in masked_sweep(path, zs, dlog))
    return want


def zero_unit(layer: Affine, unit: int) -> None:
    """Make one unit's pre-activation exactly zero on every row."""
    layer.weight[unit] = 0.0
    layer.bias[unit] = -0.0


class TestRectifierMask:
    """The mask read from a layer's output, hs > 0, is the mask of its
    pre-activation, z > 0, where z is exactly 0.0 or -0.0 too."""

    def backbone_instance(self):
        config = BackboneConfig(4, (5, 4, 3), 3)
        _, params, x, y = small_instance(seed=60, config=config, batch=8)
        random_biases(params, np.random.default_rng(60))
        zero_unit(params.blocks[0], 1)
        zero_unit(params.blocks[1], 2)
        x[0] = -0.0
        x[:, 2] = -0.0
        hs, zs = forward_with_preactivations(params.blocks, x)
        assert np.all(zs[0][:, 1] == 0.0) and np.all(zs[1][:, 2] == 0.0)
        fp = forward_pass(params, x, y)
        assert all(got.tobytes() == want.tobytes() for got, want in zip(fp.hs, hs))
        return params, fp, hs, zs

    def test_batch_weighted_grad(self):
        params, fp, hs, zs = self.backbone_instance()
        coeffs = np.random.default_rng(61).uniform(0.1, 1.0, (8, 3))
        want = per_exit_weighted_grad(params, fp, hs, zs, coeffs)
        assert batch_weighted_grad(fp, coeffs, BackboneParams.zeros(params.config)).tobytes() == want.tobytes()

    def test_per_sample_grad_dots(self):
        params, fp, hs, zs = self.backbone_instance()
        vec = np.random.default_rng(62).standard_normal(params.num_params)
        dots = per_sample_grad_dots(fp, BackboneParams(params.config, vec))
        assert dots.tobytes() == per_exit_grad_dots(params, fp, hs, zs, vec).tobytes()

    @pytest.mark.parametrize("b", [1, 7])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("width", [1, 6, 500])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_wpn_backward(self, depth, width, k, b):
        # the weight network as a one-exit trunk: its head reads the last
        # hidden layer, and the layers below carry that one exit's error
        config = WpnConfig(k, hidden_width=width, hidden_depth=depth, delta=0.6)
        seed = 63 + 100 * depth + width + 10 * k + b
        params = init_wpn(config, RngStream(seed))
        rng = np.random.default_rng(seed)
        for layer in params.layers:
            layer.bias[:] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        # one exactly-zero unit per hidden layer, unless that is its only unit
        units = [(4 + 2 * j) % width for j in range(depth)] if width > 1 else []
        for j, unit in enumerate(units):
            zero_unit(params.layers[j], unit)
        losses = rng.uniform(0.0, 3.0, (b, k))
        losses[0] = -0.0
        losses[:, 1:2] = -0.0
        hs, zs = forward_with_preactivations(params.layers[:-1], losses)
        assert all(np.all(z[:, unit] == 0.0) for z, unit in zip(zs, units))
        wpn_pass = wpn_weights(params, losses)
        probe = rng.standard_normal((b, k))
        g = probe - probe.mean()
        s = wpn_pass.sigmoids
        want = WpnParams.zeros(config)
        sweep_into(params.layers, hs, zs, g * (2.0 * config.delta) * s * (1.0 - s), want.layers)
        assert wpn_backward(wpn_pass, probe, WpnParams.zeros(config)).tobytes() == want.buffer.tobytes()


# one unequal-width trunk per exit count, a 2-wide bottleneck from K = 2 on
SWEEP_TRUNKS = {1: (5,), 2: (6, 2), 4: (9, 2, 7, 5), 6: (9, 2, 7, 5, 3, 6)}


class TestBlockSweep:
    """The one top-down sweep over all exits is bitwise the per-exit sweeps."""

    @staticmethod
    def instance(k, c, b, seed):
        config = BackboneConfig(4, SWEEP_TRUNKS[k], c)
        _, params, x, y = small_instance(seed=seed, config=config, batch=b)
        random_biases(params, np.random.default_rng(seed))
        hs, zs = forward_with_preactivations(params.blocks, x)
        return params, x, y, hs, zs

    @pytest.mark.parametrize("b", [1, 33, 64])
    @pytest.mark.parametrize("c", [2, 100])
    @pytest.mark.parametrize("k", sorted(SWEEP_TRUNKS))
    def test_matches_per_exit_sweeps(self, k, c, b):
        params, x, y, hs, zs = self.instance(k, c, b, seed=70 + 10 * k + c + b)
        rng = np.random.default_rng(k * c * b)
        coeffs = rng.uniform(-1.0, 1.0, (b, k))
        vec = rng.standard_normal(params.num_params)
        fp = forward_pass(params, x, y)
        got = batch_weighted_grad(fp, coeffs, BackboneParams.zeros(params.config))
        assert got.tobytes() == per_exit_weighted_grad(params, fp, hs, zs, coeffs).tobytes()
        dots = per_sample_grad_dots(fp, BackboneParams(params.config, vec))
        assert dots.flags.c_contiguous
        assert dots.tobytes() == per_exit_grad_dots(params, fp, hs, zs, vec).tobytes()

    def test_selection_coefficients_on_one_label(self):
        # as a selection substep: each row picks some exits, no row picks
        # exit 1, and every row has the same label, so exit 1's weighted
        # logit errors are zeros of both signs (0.0 times the label's
        # negative error is -0.0); its head gradient must be +0.0, as the
        # per-exit sum into a zero buffer gives it
        params, x, _, hs, zs = self.instance(4, 3, 33, seed=90)
        y = np.full(33, 2)
        coeffs = (np.random.default_rng(90).uniform(size=(33, 4)) < 0.5) / 33.0
        coeffs[:, 1] = 0.0
        fp = forward_pass(params, x, y)
        want = per_exit_weighted_grad(params, fp, hs, zs, coeffs)
        got = batch_weighted_grad(fp, coeffs, BackboneParams.zeros(params.config))
        assert got.tobytes() == want.tobytes()
        head = BackboneParams(params.config, got).heads[1]
        assert not np.signbit(head.weight).any() and not np.signbit(head.bias).any()
        assert np.all(head.weight == 0.0) and np.all(head.bias == 0.0)
        vec = np.random.default_rng(91).standard_normal(params.num_params)
        dots = per_sample_grad_dots(fp, BackboneParams(params.config, vec))
        assert dots.tobytes() == per_exit_grad_dots(params, fp, hs, zs, vec).tobytes()


SRC = Path(__file__).resolve().parents[1] / "src" / "exitweave"


def function_node(module: Path, function: str) -> ast.FunctionDef:
    """The one top-level function of module named function."""
    tree = ast.parse(module.read_text(), str(module))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return node


def names_used(module: Path, function: str) -> set[str]:
    """Every bare or attribute name read inside one top-level function of module."""
    node = function_node(module, function)
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


# each production gradient of a dense ReLU network, and the module that defines it
SWEEP_USERS = {"batch_weighted_grad": "backbone.py", "per_sample_grad_dots": "backbone.py", "wpn_backward": "wpn.py"}


@pytest.mark.parametrize("function", list(SWEEP_USERS))
def test_one_sweep_carries_every_exit(function):
    # each runs the one top-down sweep, directly or through the one
    # gradient writer, never a sweep per exit
    used = names_used(SRC / SWEEP_USERS[function], function)
    assert "_block_errors" in used or "_tops_grad" in used
    assert "_block_errors" in names_used(SRC / "backbone.py", "_tops_grad")
    # and the per-chain sweep is gone: only per_sample_grads, the dense
    # reference, keeps a chain rule of its own
    assert not names_used(SRC / "backbone.py", "per_sample_grads") & {"_block_errors", "_tops_grad"}
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert not [name for name in ("output_errors", "accumulate_grads", "_exit_path") if name in text], path


def maximum_calls(module: Path) -> list[str]:
    """`module:function` of each use of np.maximum in module."""
    tree = ast.parse(module.read_text(), str(module))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "maximum" and getattr(node.value, "id", None) == "np":
            inner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append(f"{module.name}:{inner[-1] if inner else '<module>'}")
    return found


def test_one_rectifier_step():
    # every dense ReLU layer, in the trunk, the weight network and the
    # blocked evaluation, runs through backbone.relu_forward
    assert [call for module in sorted(SRC.glob("*.py")) for call in maximum_calls(module)] == [
        "backbone.py:relu_forward"
    ]


def head_weight_reads(module: Path) -> list[tuple[str, bool]]:
    """(`module:function`, transposed) of each read of a head's weight in module.

    A head is `heads[...]`, `x.heads[...]`, or a name that a loop over
    heads or an assignment from them binds; transposed marks
    `.weight.T`, the weight applied in a forward pass (x @ W.T).
    """
    tree = ast.parse(module.read_text(), str(module))

    def is_heads(node):
        return getattr(node, "id", None) == "heads" or getattr(node, "attr", None) == "heads"

    found = []
    for function in [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]:
        bound = set()
        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.comprehension)) and any(map(is_heads, ast.walk(node.iter))):
                bound |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Assign) and (is_heads(node.value) or is_heads(getattr(node.value, "value", None))):
                bound |= {n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}

        def is_head(node):
            return getattr(node, "id", None) in bound or (isinstance(node, ast.Subscript) and is_heads(node.value))

        transposed = {id(node.value) for node in ast.walk(function) if isinstance(node, ast.Attribute) and node.attr == "T"}
        found += [
            (f"{module.name}:{function.name}", id(node) in transposed)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr == "weight" and is_head(node.value)
        ]
    return found


def test_one_head_pass():
    # head_forward is the one place a head's weight is applied forward, for
    # both networks' heads and for a vector's head slices; besides it only
    # the backward sweep and its writer and the dense reference read one
    reads = [read for module in sorted(SRC.glob("*.py")) for read in head_weight_reads(module)]
    assert sorted({function for function, transposed in reads if transposed}) == ["backbone.py:head_forward"]
    readers = {"backbone.py:head_forward", "backbone.py:per_sample_grads", "backbone.py:_block_errors",
               "backbone.py:_tops_grad"}
    assert {function for function, _ in reads} <= readers
    for module, function in (("backbone.py", "_forward"), ("backbone.py", "per_sample_grad_dots"),
                             ("wpn.py", "wpn_forward")):
        assert "head_forward" in names_used(SRC / module, function), function


def calls_in(module: Path, function: str) -> list[str]:
    """The bare names one top-level function of module calls, once per call site."""
    node = function_node(module, function)
    return [n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]


def test_one_forward_path():
    # both public forward functions validate a batch once and run one pass
    # core, and the cores validate nothing: `_forward_pass` is forward_pass
    # on a checked batch, over `_forward`; forward_all adds no layer math
    for function, core in (("forward_pass", "_forward_pass"), ("forward_all", "_forward")):
        calls = calls_in(SRC / "backbone.py", function)
        assert calls.count("_validate_batch") == 1 and calls.count(core) == 1, function
    assert calls_in(SRC / "backbone.py", "_forward_pass").count("_forward") == 1
    for core in ("_forward", "_forward_pass"):
        assert "_validate_batch" not in names_used(SRC / "backbone.py", core), core
    forward_all_node = function_node(SRC / "backbone.py", "forward_all")
    assert not [n for n in ast.walk(forward_all_node) if isinstance(n, ast.MatMult)]
    assert not {"matmul", "relu_forward", "softmax_lse"} & names_used(SRC / "backbone.py", "forward_all")
    # the weight network's sweep reads the masks its pass caches
    assert not [n for n in ast.walk(function_node(SRC / "wpn.py", "wpn_backward")) if isinstance(n, ast.Gt)]
    for path in SRC.glob("*.py"):
        assert "_relu_layer" not in path.read_text(), path


# each writer of a gradient or of lookahead parameters, and its buffer parameters
BUFFER_WRITERS = {
    "backbone._tops_grad": ("out",),
    "backbone.batch_weighted_grad": ("out",),
    "wpn.wpn_backward": ("out",),
    "trainer.lookahead": ("out", "pseudo"),
    "trainer.meta_chain": ("out", "pseudo"),
}
FLAT_CLASSES = {"FlatParams", "BackboneParams", "WpnParams"}
FRESH_ARRAYS = {"empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like", "full_like"}


def buffer_allocations(module: Path) -> list[str]:
    """`module:Class.function` of each call in module that builds parameters
    over a fresh array: `X.zeros(...)`, or `X(config, np.empty(...))` and
    the like, for X a FlatParams class named as such or `type(...)` (the
    classmethods that define `zeros` build through `cls`)."""

    def flat_class(node):
        return getattr(node, "id", None) in FLAT_CLASSES or (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type")

    def fresh(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in FRESH_ARRAYS
                and getattr(node.func.value, "id", None) == "np")

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Attribute) and child.func.attr == "zeros" and flat_class(child.func.value))
                or (flat_class(child.func) and any(map(fresh, child.args)))
            ):
                found.append(f"{module.name}:{scope}")
            visit(child, inner)

    visit(ast.parse(module.read_text(), str(module)), "")
    return found


class TestCallerBuffers:
    """Every gradient and lookahead writer writes a buffer its caller owns."""

    @pytest.mark.parametrize("writer", sorted(BUFFER_WRITERS))
    def test_writers_take_no_default_buffer(self, writer):
        module, function = writer.split(".")
        parameters = inspect.signature(getattr(import_module(f"exitweave.{module}"), function)).parameters
        assert [name for name in BUFFER_WRITERS[writer] if parameters[name].default is not inspect.Parameter.empty] == []

    def test_only_the_training_state_allocates_work_buffers(self):
        # only TrainState's cached buffers build parameters over a fresh
        # array: no writer, and no function of gradcheck, allocates one
        found = sorted(call for module in sorted(SRC.glob("*.py")) for call in buffer_allocations(module))
        assert found == ["trainer.py:TrainState.grad", "trainer.py:TrainState.pseudo", "trainer.py:TrainState.wpn_grad"]


class TestUpdates:
    def test_sgd_zero_lr_and_zero_grad(self):
        config, params, _, _ = small_instance(seed=17)
        flat = params.flatten()
        same, vel = sgd_step(params, np.zeros_like(flat), lr=0.0)
        np.testing.assert_array_equal(same.flatten(), flat)
        same2, vel2 = sgd_step(params, np.zeros_like(flat), lr=0.5)
        np.testing.assert_array_equal(same2.flatten(), flat)
        assert vel is None and vel2 is None

    def test_sgd_grad_of_the_wrong_length(self):
        _, params, _, _ = small_instance(seed=17)
        count = params.num_params
        with pytest.raises(ShapeError, match=rf"grad shape \(3,\) does not match parameter count \({count},\)"):
            sgd_step(params, np.zeros(3), lr=0.1)

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
        # second step accumulates the velocity; it steps p1 and v1 in
        # place, so the expected values come from copies taken before it
        flat1, vel1 = p1.flatten(), v1.copy()
        grad2 = rng.standard_normal(flat.shape)
        p2, v2 = sgd_step(p1, grad2, lr, mom, wd, v1)
        g2 = grad2 + wd * flat1
        np.testing.assert_allclose(v2, mom * vel1 + g2, atol=0)
        np.testing.assert_allclose(p2.flatten(), flat1 - lr * v2, atol=0)

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
