"""Evaluation sweep checks against direct recomputation."""

import numpy as np

from exitweave.backbone import BackboneConfig, count_mul_adds, forward_all, init_params
from exitweave import evaluate
from exitweave.datahub import gen_synthetic_gaussians
from exitweave.evaluate import anytime_accuracy, default_q_grid, dynamic_sweep
from exitweave.exitpolicy import DynamicInference, calibrate_thresholds, dynamic_infer, exit_masks, expected_cost
from exitweave.numkit import RngStream


BB = BackboneConfig(6, (8, 6, 5), 4)


def fixture():
    root = RngStream(11)
    params = init_params(BB, root.child("p"))
    val = gen_synthetic_gaussians(4, 6, 25, 1.5, root.child("v"), split="val")
    test = gen_synthetic_gaussians(4, 6, 30, 1.5, root.child("t"), split="test")
    return params, val, test


class TestAnytime:
    def test_matches_manual_argmax(self):
        params, val, _ = fixture()
        acc = anytime_accuracy(params, val)
        outs = forward_all(params, val.features, val.labels)
        manual = (outs.predictions == val.labels[:, None]).mean(axis=0)
        np.testing.assert_allclose(acc, manual, atol=1e-15)
        assert acc.shape == (3,)

    def test_perfect_params_reach_one(self):
        root = RngStream(12)
        data = gen_synthetic_gaussians(2, 2, 30, 0.01, root.child("d"), radius=5.0)
        bb = BackboneConfig(2, (4,), 2)
        params = init_params(bb, root.child("p"))
        # plant a head that reads the separable first coordinate directly
        params.blocks[0].weight[:] = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        params.blocks[0].bias[:] = 0.0
        params.heads[0].weight[:] = np.array([[5.0, -5.0, 0.0, 0.0], [-5.0, 5.0, 0.0, 0.0]])
        params.heads[0].bias[:] = 0.0
        acc = anytime_accuracy(params, data)
        assert acc[0] == 1.0


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        grid = default_q_grid()
        assert grid.shape == (40,)
        np.testing.assert_allclose(grid[0], 0.05)
        np.testing.assert_allclose(grid[-1], 2.0)
        assert np.all(np.diff(grid) > 0)


class TestDynamicSweep:
    def test_rows_match_direct_computation(self):
        params, val, test = fixture()
        grid = np.array([0.3, 0.8, 1.5])
        rows = dynamic_sweep(params, val, test, grid)
        assert [r["q"] for r in rows] == [0.3, 0.8, 1.5]
        costs = count_mul_adds(BB)
        val_outs = forward_all(params, val.features, val.labels)
        test_outs = forward_all(params, test.features, test.labels)
        for row, q in zip(rows, grid):
            thresholds = calibrate_thresholds(val_outs.confidences, q)
            result = dynamic_infer(test_outs, thresholds)
            np.testing.assert_array_equal(row["thresholds"], thresholds)
            assert row["exit_counts"] == result.exit_counts.tolist()
            np.testing.assert_allclose(row["accuracy"], result.accuracy, atol=1e-15)
            np.testing.assert_allclose(
                row["expected_muladds"], expected_cost(result.exit_counts, costs), atol=1e-9
            )

    def test_rows_equal_per_q_calibration(self):
        # the sweep sorts each exit once for the whole grid; its rows must be
        # exactly the rows of calibrating afresh at every q (val and test
        # above 1024 rows, so forward_all runs in row blocks)
        root = RngStream(21)
        params = init_params(BB, root.child("p"))
        val = gen_synthetic_gaussians(4, 6, 300, 1.5, root.child("v"), split="val")
        test = gen_synthetic_gaussians(4, 6, 300, 1.5, root.child("t"), split="test")
        grid = default_q_grid()
        costs = count_mul_adds(BB)
        val_outs = forward_all(params, val.features, val.labels)
        test_outs = forward_all(params, test.features, test.labels)
        expected = []
        for q in grid:
            thresholds = calibrate_thresholds(val_outs.confidences, float(q))
            result = dynamic_infer(test_outs, thresholds)
            expected.append({
                "q": float(q),
                "thresholds": [float(e) for e in thresholds],
                "exit_counts": [int(c) for c in result.exit_counts],
                "accuracy": result.accuracy,
                "expected_muladds": expected_cost(result.exit_counts, costs),
            })
        assert dynamic_sweep(params, val, test, grid) == expected

    def test_one_mask_table_per_q_and_no_dynamic_inference(self, monkeypatch):
        # the grid is replayed from per-exit masks: no DynamicInference is
        # built and the leaving rule runs once per grid point
        params, val, test = fixture()
        calls = []

        def counted(conf_t, thresholds):
            calls.append(conf_t.shape)
            return exit_masks(conf_t, thresholds)

        def refuse(*args, **kwargs):
            raise AssertionError("score_sweep built a DynamicInference")

        monkeypatch.setattr(evaluate, "exit_masks", counted)
        monkeypatch.setattr(DynamicInference, "__init__", refuse)
        rows = dynamic_sweep(params, val, test, np.array([0.3, 0.8, 1.5]))
        assert len(rows) == 3 and calls == [(3, len(test))] * 3

    def test_default_grid_used_when_omitted(self):
        params, val, test = fixture()
        rows = dynamic_sweep(params, val, test)
        assert len(rows) == 40
        np.testing.assert_allclose(rows[0]["q"], 0.05)

    def test_exit_counts_partition_test_set(self):
        params, val, test = fixture()
        for row in dynamic_sweep(params, val, test, np.array([0.1, 1.0, 2.0])):
            assert sum(row["exit_counts"]) == len(test)

    def test_larger_q_shifts_exits_deeper(self):
        # larger q routes more calibration mass to deep exits, raising the
        # thresholds, so the expected cost is nondecreasing along the grid
        params, val, test = fixture()
        rows = dynamic_sweep(params, val, test, np.linspace(0.05, 2.0, 15))
        cost = [r["expected_muladds"] for r in rows]
        assert all(a <= b + 1e-9 for a, b in zip(cost, cost[1:]))
