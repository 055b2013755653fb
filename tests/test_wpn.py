"""Weight prediction network checks.

The forward pass is compared to a straight-line loop oracle, the
backward pass to finite differences through a fixed linear probe, the
perturbation pipeline to its stated contract (zero sum, mean-one,
bounded), and Adam to an independent transcription of the textbook
update formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitweave.errors import ConfigError, ShapeError
from exitweave.numkit import RngStream
from exitweave.wpn import (
    AdamState,
    WpnConfig,
    WpnParams,
    adam_step,
    init_wpn,
    make_weights,
    meta_weight_grad,
    wpn_backward,
    wpn_forward,
    wpn_weights,
)


def wpn_forward_oracle(params: WpnParams, loss_matrix: np.ndarray) -> np.ndarray:
    """Row-by-row loop evaluation of the MLP."""
    import math

    out = np.empty((loss_matrix.shape[0], params.config.num_exits))
    for r in range(loss_matrix.shape[0]):
        h = [float(v) for v in loss_matrix[r]]
        for li, layer in enumerate(params.layers):
            z = []
            for o in range(layer.weight.shape[0]):
                acc = layer.bias[o]
                for i in range(layer.weight.shape[1]):
                    acc += layer.weight[o, i] * h[i]
                z.append(acc)
            h = z if li == len(params.layers) - 1 else [max(v, 0.0) for v in z]
        out[r] = h
    return out


def small_wpn(seed=0, num_exits=3, width=6, depth=1, delta=0.8):
    config = WpnConfig(num_exits, hidden_width=width, hidden_depth=depth, delta=delta)
    return config, init_wpn(config, RngStream(seed).child("init-wpn"))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WpnConfig(0)
        with pytest.raises(ConfigError):
            WpnConfig(2, hidden_width=0)
        with pytest.raises(ConfigError):
            WpnConfig(2, hidden_depth=0)
        with pytest.raises(ConfigError):
            WpnConfig(2, delta=1.0)
        with pytest.raises(ConfigError):
            WpnConfig(2, delta=-0.1)
        WpnConfig(2, delta=0.0)  # degenerate all-ones case is legal

    def test_flatten_roundtrip_and_depth(self):
        config, params = small_wpn(depth=2)
        flat = params.flatten()
        # K -> w, w -> w, w -> K
        assert flat.shape[0] == (6 * 3 + 6) + (6 * 6 + 6) + (3 * 6 + 3)
        again = WpnParams.from_flat(config, flat)
        np.testing.assert_array_equal(again.flatten(), flat)
        with pytest.raises(ShapeError):
            WpnParams.from_flat(config, flat[:-1])


class TestFlatBuffer:
    def test_layer_views_alias_the_buffer(self):
        config, params = small_wpn(depth=2)
        before = params.flatten()
        params.layers[1].weight[2, 3] = 7.0
        changed = np.flatnonzero(params.flatten() != before)
        # layer 0 holds 6*3 weights and 6 biases; row 2 of layer 1 starts 12 entries in
        np.testing.assert_array_equal(changed, [6 * 3 + 6 + 2 * 6 + 3])

class TestForward:
    def test_matches_loop_oracle(self):
        for depth in (1, 2):
            config, params = small_wpn(seed=1, depth=depth)
            losses = RngStream(2).uniform(0.0, 4.0, (5, 3))
            raw, _ = wpn_forward(params, losses)
            np.testing.assert_allclose(raw, wpn_forward_oracle(params, losses), atol=1e-12)

    def test_identical_rows_map_identically(self):
        config, params = small_wpn(seed=3)
        row = np.array([0.5, 1.5, 0.1])
        raw, _ = wpn_forward(params, np.vstack([row, row]))
        np.testing.assert_array_equal(raw[0], raw[1])

    def test_zero_params_give_zero_raw(self):
        config, params = small_wpn(seed=4)
        zeroed = WpnParams.from_flat(config, np.zeros(params.num_params))
        raw, _ = wpn_forward(zeroed, np.ones((4, 3)))
        np.testing.assert_array_equal(raw, np.zeros((4, 3)))

    def test_width_mismatch(self):
        config, params = small_wpn()
        with pytest.raises(ShapeError):
            wpn_forward(params, np.ones((2, 4)))


class TestMakeWeights:
    def test_direct_example(self):
        # pre-normalization [0.3, -0.1] -> ptb [0.2, -0.2] -> w [1.2, 0.8]
        delta = 0.5
        s = (np.array([[0.3], [-0.1]]) / delta + 1.0) / 2.0  # invert the squash
        raw = np.log(s / (1 - s))
        ptb, w, _ = make_weights(raw, delta)
        np.testing.assert_allclose(ptb, [[0.2], [-0.2]], atol=1e-12)
        np.testing.assert_allclose(w, [[1.2], [0.8]], atol=1e-12)

    def test_equal_raw_gives_unit_weights(self):
        ptb, w, _ = make_weights(np.full((3, 2), 1.234), 0.8)
        np.testing.assert_allclose(ptb, np.zeros((3, 2)), atol=1e-15)
        np.testing.assert_allclose(w, np.ones((3, 2)), atol=1e-15)

    def test_delta_zero_gives_exact_ones(self):
        rng = np.random.default_rng(5)
        ptb, w, _ = make_weights(rng.standard_normal((6, 4)) * 10, 0.0)
        assert np.all(ptb == 0.0)
        assert np.all(w == 1.0)

    def test_range_is_one_plus_minus_two_delta(self):
        # the zero-sum shift can add up to delta on top of the squash's
        # +-delta: one high score among 63 low ones, 16x4 at delta = 0.8
        raw = np.full((16, 4), -40.0)
        raw[0, 0] = 40.0
        _, w, _ = make_weights(raw, 0.8)
        assert w[0, 0] > 1.0 + 0.8
        np.testing.assert_allclose(w[0, 0], 1.0 + 0.8 * (1.0 + 62.0 / 64.0), atol=1e-12)
        assert w[0, 0] < 1.0 + 2 * 0.8 and w.min() > 1.0 - 2 * 0.8

    def test_validation(self):
        with pytest.raises(ShapeError):
            make_weights(np.zeros(3), 0.5)
        with pytest.raises(ConfigError):
            make_weights(np.zeros((2, 2)), 1.0)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_contract_property(self, b, k, delta, seed):
        raw = RngStream(seed).standard_normal((b, k)) * 4.0
        ptb, w, _ = make_weights(raw, delta)
        pre = delta * (2.0 / (1.0 + np.exp(-raw)) - 1.0)
        assert np.all(np.abs(pre) < delta)
        assert abs(ptb.sum()) <= 1e-9
        assert abs(w.mean() - 1.0) <= 1e-9
        assert np.all(np.abs(ptb) < 2 * delta)
        np.testing.assert_allclose(w, 1.0 + ptb, atol=0)

    def test_row_permutation_equivariance(self):
        config, params = small_wpn(seed=6)
        losses = RngStream(7).uniform(0.0, 3.0, (6, 3))
        perm = RngStream(8).permutation(6)
        raw, _ = wpn_forward(params, losses)
        raw_p, _ = wpn_forward(params, losses[perm])
        _, w, _ = make_weights(raw, 0.7)
        _, w_p, _ = make_weights(raw_p, 0.7)
        # global mean is permutation-invariant, so weights permute with rows
        np.testing.assert_allclose(w_p, w[perm], atol=1e-15)


class TestWpnWeights:
    def test_is_forward_then_make_weights_at_the_config_delta(self):
        config, params = small_wpn(seed=9, delta=0.55)
        losses = RngStream(10).uniform(0.0, 3.0, (5, 3))
        wpn_pass = wpn_weights(params, losses)
        raw, hs = wpn_forward(params, losses)
        _, ref_weights, ref_sigmoids = make_weights(raw, config.delta)
        assert wpn_pass.params is params
        assert wpn_pass.weights.tobytes() == ref_weights.tobytes()
        assert wpn_pass.sigmoids.tobytes() == ref_sigmoids.tobytes()
        assert len(wpn_pass.hs) == len(hs)
        for got, ref in zip(wpn_pass.hs, hs):
            assert got.tobytes() == ref.tobytes()

    def test_delta_zero_network_gives_all_ones(self):
        config = WpnConfig(3, hidden_width=6, delta=0.0)
        params = init_wpn(config, RngStream(12))
        weights = wpn_weights(params, RngStream(13).uniform(0.0, 3.0, (4, 3))).weights
        assert np.all(weights == 1.0)


class TestMetaWeightGrad:
    def test_zero_meta_grad(self):
        psg = np.ones((3, 2, 5))
        out = meta_weight_grad(psg, np.zeros(5), alpha=0.1, n=3)
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_orthogonal_rows_give_zero_entries(self):
        psg = np.zeros((2, 1, 4))
        psg[0, 0] = [1.0, 0.0, 0.0, 0.0]
        psg[1, 0] = [0.0, 1.0, 0.0, 0.0]
        meta = np.array([0.0, 0.0, 2.0, 0.0])
        out = meta_weight_grad(psg, meta, alpha=0.5, n=2)
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_inner_product_formula(self):
        rng = np.random.default_rng(9)
        psg = rng.standard_normal((4, 3, 7))
        meta = rng.standard_normal(7)
        out = meta_weight_grad(psg, meta, alpha=0.2, n=4)
        for i in range(4):
            for k in range(3):
                np.testing.assert_allclose(out[i, k], -(0.2 / 4) * psg[i, k] @ meta, atol=1e-14)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            meta_weight_grad(np.zeros((2, 2, 5)), np.zeros(4), 0.1, 2)
        with pytest.raises(ShapeError):
            meta_weight_grad(np.zeros((2, 2, 5)), np.zeros(5), 0.1, 0)


class TestBackward:
    def test_zero_upstream_gradient(self):
        config, params = small_wpn(seed=10, delta=0.6)
        wpn_pass = wpn_weights(params, RngStream(11).uniform(0.0, 2.0, (4, 3)))
        grad = wpn_backward(wpn_pass, np.zeros((4, 3)), WpnParams.zeros(config))
        np.testing.assert_array_equal(grad, np.zeros(params.num_params))

    def test_constant_upstream_gradient_is_killed_by_normalization(self):
        config, params = small_wpn(seed=12, delta=0.6)
        wpn_pass = wpn_weights(params, RngStream(13).uniform(0.0, 2.0, (4, 3)))
        grad = wpn_backward(wpn_pass, np.full((4, 3), 3.21), WpnParams.zeros(config))
        np.testing.assert_allclose(grad, np.zeros(params.num_params), atol=1e-12)

    def test_matches_fd_through_linear_probe(self):
        for depth in (1, 2):
            config, params = small_wpn(seed=14, depth=depth, delta=0.7)
            losses = RngStream(15).uniform(0.0, 3.0, (5, 3))
            probe = RngStream(16).standard_normal((5, 3))
            analytic = wpn_backward(wpn_weights(params, losses), probe, WpnParams.zeros(config))

            def value(flat):
                return float(np.sum(probe * wpn_weights(WpnParams.from_flat(config, flat), losses).weights))

            flat = params.flatten()
            fd = np.empty_like(flat)
            for p in range(flat.shape[0]):
                step = 1e-5 * max(1.0, abs(flat[p]))
                up, dn = flat.copy(), flat.copy()
                up[p] += step
                dn[p] -= step
                fd[p] = (value(up) - value(dn)) / (2 * step)
            err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), np.linalg.norm(fd))
            assert err <= 1e-6

    def test_gradient_shape_validation(self):
        config, params = small_wpn(seed=20)
        wpn_pass = wpn_weights(params, RngStream(21).uniform(0.0, 2.0, (4, 3)))
        for shape in [(4,), (6, 3), (4, 2)]:
            with pytest.raises(ShapeError, match="does not match the weights"):
                wpn_backward(wpn_pass, np.zeros(shape), WpnParams.zeros(config))


class TestAdam:
    @pytest.mark.parametrize("target", [np.arange(5.0, dtype=np.float32), [0.0, 1.0, 2.0, 3.0, 4.0]],
                             ids=["float32", "list"])
    def test_refuses_a_target_it_would_step_a_copy_of(self, target):
        # converted to float64, the target would be a new array: the copy
        # would be stepped and the caller's vector left as it was
        state = AdamState.zeros(5)
        got = "float32" if isinstance(target, np.ndarray) else "list"
        with pytest.raises(ShapeError, match=f"^params must be a float64 ndarray, got {got}$"):
            adam_step(target, np.ones(5), state, 0.1)
        assert state.step == 0 and not state.m.any() and not state.v.any()

    def test_zero_grad_first_step_is_identity(self):
        params = np.arange(5.0)
        before = params.copy()
        out, state = adam_step(params, np.zeros(5), AdamState.zeros(5), lr=0.1)
        assert out is params  # stepped in place: compare with the copy taken before the call
        assert out.tobytes() == before.tobytes()
        assert state.step == 1

    def test_first_step_magnitude_is_about_lr(self):
        out, _ = adam_step(np.zeros(1), np.array([1.0]), AdamState.zeros(1), lr=1e-3)
        np.testing.assert_allclose(out[0], -1e-3, rtol=1e-7)

    def test_ten_step_trajectory_matches_textbook_transcription(self):
        rng = np.random.default_rng(22)
        n = 7
        params = rng.standard_normal(n)
        state = AdamState.zeros(n)
        # independent transcription
        ref = params.copy()
        m = np.zeros(n)
        v = np.zeros(n)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        for t in range(1, 11):
            grad = rng.standard_normal(n)
            params, state = adam_step(params, grad, state, lr)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(params, ref, atol=1e-12)
            assert state.step == t

    def test_shape_and_finiteness_validation(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3), 0.1)
