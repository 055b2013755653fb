"""Numeric kernel checks against independent oracles.

softmax is compared to an extended precision (40 digit) mpmath
evaluation and the RNG streams to numpy's own PCG64. None of the
oracles share code with the implementation.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitweave.errors import NumericError, ShapeError
from exitweave.numkit import (
    RngStream,
    require_finite,
    sigmoid_stable,
    softmax_lse,
    softmax_stable,
)


def softmax_oracle(row):
    # mpf(float) is exact: binary64 values embed losslessly in mpmath.
    with mpmath.workdps(40):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


class TestSoftmax:
    def test_matches_mpmath_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            row = rng.standard_normal(rng.integers(2, 9)) * rng.uniform(0.1, 20)
            np.testing.assert_allclose(softmax_stable(row), softmax_oracle(row), rtol=1e-13, atol=1e-15)

    def test_huge_logits_do_not_overflow(self):
        out = softmax_stable(np.array([1e4, 1e4 - 5.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        np.testing.assert_allclose(softmax_stable(x), softmax_stable(x + 123.456), atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        out = softmax_stable(rng.standard_normal((10, 6)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(10), atol=1e-12)
        assert np.all(out > 0)

    def test_rejects_3d_and_nonfinite(self):
        with pytest.raises(ShapeError):
            softmax_stable(np.zeros((2, 2, 2)))
        with pytest.raises(NumericError):
            softmax_stable(np.array([1.0, np.nan]))

    def test_log_sum_exp_matches_naive(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5))
        np.testing.assert_allclose(softmax_lse(x)[1], np.log(np.exp(x).sum(axis=1)), atol=1e-12)
        lse = softmax_lse(x[0])[1]
        assert lse.shape == ()
        np.testing.assert_allclose(lse, np.log(np.exp(x[0]).sum()), atol=1e-12)

    @staticmethod
    def edge_rows(c: int) -> np.ndarray:
        """Rows of signed zeros, tied maxima and +-1e300, c columns each."""
        rng = np.random.default_rng(c)
        signs = rng.choice([-1.0, 1.0], (3, c))
        zeros = signs * 0.0
        zeros[1] = -0.0
        ties = np.full((2, c), 2.0)
        ties[0, ::2] = -50.0
        ties[1, 0] = -0.0
        huge = signs * 1e300
        huge[0, :] = -1e300
        huge[1, -1] = 0.0
        mixed = rng.standard_normal((2, c))
        mixed[0, -1] = mixed[0].max()  # a tie at a nonzero max
        mixed[1, : c // 2] = -0.0
        return np.vstack([zeros, ties, huge, mixed])

    def test_signed_zeros_and_ties_match_two_pass(self):
        # rows of signed zeros, tied logits and +-1e300: every output must
        # equal the two-pass result (softmax, then a separate log-sum-exp)
        # from x.max, whichever entry the row max is read from
        batches = [self.edge_rows(c) for c in (2, 3, 100)]
        for x in [row for batch in batches for row in (batch, *batch)]:  # 2-D, then each row 1-D
            m = x.max(axis=-1, keepdims=True)
            e = np.exp(x - m)
            probs, lse = softmax_lse(x)
            assert probs.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
            assert lse.tobytes() == (m[..., 0] + np.log(np.exp(x - m).sum(axis=-1))).tobytes()

    def test_in_place_matches_a_new_array(self):
        # out=x overwrites the logits with bitwise the probabilities a new
        # array receives, and the log-sum-exp is the same
        for c in (2, 3, 100):
            far = np.full((1, c), -800.0)  # entries whose exp underflows to 0.0
            far[0, 0] = 5.0
            batch = np.vstack([self.edge_rows(c), far])
            for x in (batch, *batch):  # 2-D, then each row 1-D
                probs, lse = softmax_lse(x)
                inplace = x.copy()
                got, got_lse = softmax_lse(inplace, out=inplace)
                assert np.shares_memory(got, inplace)
                assert inplace.tobytes() == probs.tobytes() and got_lse.tobytes() == lse.tobytes()
        with pytest.raises(ShapeError):
            softmax_lse(np.zeros((2, 3)), out=np.zeros((3, 2)))

    def test_entries_far_below_the_max_underflow_to_zero(self):
        # exp(-805) is below the smallest subnormal: the entry is exactly
        # 0.0 while the row's log-sum-exp stays finite
        probs, lse = softmax_lse([[0.0, -800.0, 5.0]])
        assert probs[0, 1] == 0.0 and probs[0, 0] > 0.0
        assert np.isfinite(lse[0]) and lse[0] > 5.0


class TestSigmoid:
    def test_extremes_and_symmetry(self):
        out = sigmoid_stable(np.array([-1e4, -30.0, 0.0, 30.0, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[-1] <= 1.0
        np.testing.assert_allclose(out[2], 0.5, atol=1e-15)
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(sigmoid_stable(x) + sigmoid_stable(-x), np.ones_like(x), atol=1e-12)

    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-25, 25, 101)
        np.testing.assert_allclose(sigmoid_stable(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_bitwise_the_masked_halves(self):
        # the two-branch form: 1 / (1 + exp(-x)) on x >= 0, exp(x) / (1 + exp(x)) elsewhere
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.2, -745.2, 746.0, -746.0,
                   800.0, -800.0, 1e308, -1e308, 5e-324, -5e-324]
        x = np.concatenate([special, np.random.default_rng(5).standard_normal(4000) * 30.0])
        with np.errstate(invalid="ignore"):
            assert sigmoid_stable(x).tobytes() == masked(x).tobytes()
        grid = x[16:].reshape(-1, 4)
        assert sigmoid_stable(grid).tobytes() == masked(grid).tobytes()


class TestRequireFinite:
    def test_passes_through_and_raises(self):
        a = np.arange(3.0)
        assert require_finite(a) is a
        with pytest.raises(NumericError, match="bad"):
            require_finite(np.array([np.inf]), "bad")


class TestRngStream:
    def test_same_seed_replays(self):
        a = RngStream(42).standard_normal(16)
        b = RngStream(42).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_matches_pcg64_reference(self):
        # every draw the package makes is numpy's own, bitwise, in sequence
        ours = RngStream(123)
        ref = np.random.Generator(np.random.PCG64(123))
        assert isinstance(ours, np.random.Generator) and ours.seed == 123
        for draw, args in (("standard_normal", ((4, 3),)), ("uniform", (-0.5, 0.5, (5,))),
                           ("permutation", (9,)), ("integers", (0, 7, 6))):
            got, want = getattr(ours, draw)(*args), getattr(ref, draw)(*args)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), draw

    def test_child_seeds_are_pinned(self):
        # a changed child seed would change every run's parameters and shuffles
        assert RngStream(0).child("init-backbone").seed == 9637191323178027541
        assert RngStream(7).child("shuffle-3").seed == 1639013218715289087
        assert RngStream(2022).child("").seed == 7215782770689459022
        assert RngStream(0).child("a").child("b").seed == 16970518209865361828

    def test_children_are_stable_and_distinct(self):
        root = RngStream(7)
        a1 = root.child("init").standard_normal(8)
        a2 = RngStream(7).child("init").standard_normal(8)
        b = RngStream(7).child("shuffle").standard_normal(8)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_child_insensitive_to_sibling_draws(self):
        # adding a consumer must not shift an existing child's stream
        quiet = RngStream(7)
        noisy = RngStream(7)
        noisy.standard_normal(1000)
        noisy.child("other").standard_normal(3)
        np.testing.assert_array_equal(
            quiet.child("init").standard_normal(4), noisy.child("init").standard_normal(4)
        )

    def test_permutation_and_integers_domains(self):
        s = RngStream(0)
        perm = s.permutation(10)
        assert sorted(perm) == list(range(10))
        draws = s.integers(0, 5, 100)
        assert draws.min() >= 0 and draws.max() < 5

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_child_seed_deterministic_property(self, seed, label):
        a = RngStream(seed).child(label)
        b = RngStream(seed).child(label)
        assert a.seed == b.seed
        np.testing.assert_array_equal(a.standard_normal(3), b.standard_normal(3))
