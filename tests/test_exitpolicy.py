"""Budget allocation, threshold calibration and dynamic inference checks.

allocate_meta is compared to a brute-force transcription of the greedy
rule (sort each remaining pool by confidence, take the quota); floor
sizes are recomputed with exact Fraction arithmetic in the test itself;
the calibration round trip and cost monotonicity are exercised on fixed
random tables.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitweave.backbone import BackboneConfig, ExitOutputs, count_mul_adds, forward_all, init_params
from exitweave.errors import DomainError, ShapeError
from exitweave.evaluate import score_sweep
from exitweave.exitpolicy import (
    EMPTY_EXIT_SENTINEL,
    _exit_orders,
    _greedy_subsets,
    allocate_meta,
    allocation_sizes,
    calibrate_threshold_grid,
    calibrate_thresholds,
    dynamic_infer,
    exit_decisions,
    exit_fractions,
    exit_masks,
    expected_cost,
)
from exitweave.numkit import RngStream


def greedy_oracle(conf: np.ndarray, sizes: np.ndarray):
    """Literal transcription of the greedy confidence-first partition."""
    n, k_exits = conf.shape
    remaining = list(range(n))
    subsets = []
    for k in range(k_exits - 1):
        ranked = sorted(remaining, key=lambda i: (-conf[i, k], i))
        take = ranked[: int(sizes[k])]
        subsets.append(take)
        remaining = [i for i in remaining if i not in take]
    subsets.append(remaining)
    return subsets


def shrinking_argsort_oracle(conf: np.ndarray, q: float) -> list[np.ndarray]:
    """The greedy partition as it was first written: a fresh stable argsort
    of the shrinking remainder at every exit."""
    n, k_exits = conf.shape
    sizes = allocation_sizes(q, k_exits, n)
    remaining = np.arange(n)
    subsets = []
    for k in range(k_exits - 1):
        take = int(sizes[k])
        order = np.argsort(-conf[remaining, k], kind="stable")
        subsets.append(remaining[order[:take]])
        keep = np.ones(remaining.shape[0], dtype=bool)
        keep[order[:take]] = False
        remaining = remaining[keep]
    subsets.append(remaining)
    return subsets


def oracle_thresholds(conf: np.ndarray, subsets: list[np.ndarray]) -> np.ndarray:
    eps = np.zeros(conf.shape[1])
    for k, subset in enumerate(subsets[:-1]):
        eps[k] = conf[subset[-1], k] if subset.size else EMPTY_EXIT_SENTINEL
    return eps


@st.composite
def tied_tables(draw, exits=st.integers(1, 5)):
    """Confidence tables full of ties: values on a 0.1 grid, rows drawn with
    repetition from a few distinct ones, some columns saturated at 1.0."""
    k = draw(exits)
    distinct = draw(st.integers(1, 6))
    values = st.integers(0, 10).map(lambda v: v / 10)
    base = np.array(draw(st.lists(st.lists(values, min_size=k, max_size=k),
                                  min_size=distinct, max_size=distinct)))
    rows = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=60))
    table = base[rows]
    table[:, draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 1.0
    return table


def sizes_oracle(q: float, k_exits: int, n: int):
    qf = Fraction(q)
    powers = [qf**j for j in range(1, k_exits + 1)]
    total = sum(powers)
    sizes = [math.floor(p * n / total) for p in powers[:-1]]
    sizes.append(n - sum(sizes))
    return sizes


class TestFractions:
    def test_uniform_at_q_one(self):
        np.testing.assert_allclose(exit_fractions(1.0, 4), [0.25] * 4, atol=1e-12)

    def test_doubling_example(self):
        np.testing.assert_allclose(exit_fractions(2.0, 3), [1 / 7, 2 / 7, 4 / 7], atol=1e-12)

    def test_five_exit_reference_fractions(self):
        np.testing.assert_allclose(
            exit_fractions(0.5, 5), [0.52, 0.26, 0.13, 0.06, 0.03], atol=0.005
        )

    def test_sum_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = float(rng.uniform(0.05, 3.0))
            k = int(rng.integers(1, 8))
            f = exit_fractions(q, k)
            np.testing.assert_allclose(f.sum(), 1.0, atol=1e-12)
            if k > 1:
                diffs = np.diff(f)
                if q > 1:
                    assert np.all(diffs > 0)
                elif q < 1:
                    assert np.all(diffs < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exit_fractions(0.0, 3)
        with pytest.raises(DomainError):
            exit_fractions(-1.0, 3)
        with pytest.raises(DomainError):
            exit_fractions(float("inf"), 3)
        with pytest.raises(DomainError):
            exit_fractions(1.0, 0)

    @pytest.mark.parametrize("q, expected", [(1e300, [1e-300, 1.0]), (1e-300, [1.0, 1e-300])])
    def test_extreme_q_does_not_overflow(self, q, expected):
        # q**2 overflowed to inf at q = 1e300, and the fractions read [0, nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(exit_fractions(q, 2), expected, rtol=1e-12)


class TestAllocationSizes:
    def test_exact_integer_boundary(self):
        # q=1, K=3, N=6 must floor to thirds, not to [1,1,4]
        np.testing.assert_array_equal(allocation_sizes(1.0, 3, 6), [2, 2, 2])

    def test_reference_instance(self):
        np.testing.assert_array_equal(allocation_sizes(0.5, 5, 100), [51, 25, 12, 6, 6])

    def test_zero_n(self):
        np.testing.assert_array_equal(allocation_sizes(0.7, 3, 0), [0, 0, 0])

    def test_negative_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="n must be >= 0, got -1"):
            allocation_sizes(1.0, 3, -1)

    def test_float_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="n must be an integer, got 10.0"):
            allocation_sizes(1.0, 3, 10.0)

    @pytest.mark.parametrize("q", [1e300, 1e-300])
    def test_extreme_q_warns_nothing(self, q):
        # validating q through exit_fractions warned of overflow at q = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(allocation_sizes(q, 3, 10), sizes_oracle(q, 3, 10))
            # a numpy count must not overflow against the large integer terms
            np.testing.assert_array_equal(allocation_sizes(q, 3, np.int64(10)), sizes_oracle(q, 3, 10))

    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=150, deadline=None)
    def test_floor_rule_property(self, q, k, n):
        sizes = allocation_sizes(q, k, n)
        np.testing.assert_array_equal(sizes, sizes_oracle(q, k, n))
        assert sizes.sum() == n
        assert np.all(sizes >= 0)

    @given(
        st.floats(min_value=1e-300, max_value=1e300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    @example(1.0, 3, 6)
    @settings(max_examples=200, deadline=None)
    def test_integer_floors_match_fraction_oracle(self, q, k, n):
        # the integer-ratio floors equal the Fraction floors over the whole float range
        sizes = allocation_sizes(q, k, n)
        assert sizes.dtype == np.int64
        np.testing.assert_array_equal(sizes, sizes_oracle(q, k, n))


class TestAllocateMeta:
    def test_top2_selection_example(self):
        conf = np.array([[0.9, 0.5], [0.1, 0.5], [0.8, 0.5], [0.2, 0.5]])
        alloc = allocate_meta(conf, 1.0)
        assert sorted(alloc.subsets[0].tolist()) == [0, 2]
        assert sorted(alloc.subsets[1].tolist()) == [1, 3]

    def test_single_exit_takes_everything(self):
        conf = RngStream(1).uniform(0.0, 1.0, (7, 1))
        alloc = allocate_meta(conf, 0.5)
        np.testing.assert_array_equal(np.sort(alloc.subsets[0]), np.arange(7))
        np.testing.assert_array_equal(alloc.sizes, [7])

    def test_matches_brute_force_oracle(self):
        rng = RngStream(2)
        for trial in range(30):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 5))
            q = float(rng.uniform(0.2, 2.5, ()))
            conf = rng.uniform(0.0, 1.0, (n, k))
            alloc = allocate_meta(conf, q)
            oracle = greedy_oracle(conf, alloc.sizes)
            for got, want in zip(alloc.subsets, oracle):
                assert sorted(got.tolist()) == sorted(want)

    def test_partition_property(self):
        rng = RngStream(3)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 6))
            conf = rng.uniform(0.0, 1.0, (n, k))
            alloc = allocate_meta(conf, float(rng.uniform(0.1, 3.0, ())))
            joined = np.concatenate(alloc.subsets)
            np.testing.assert_array_equal(np.sort(joined), np.arange(n))
            np.testing.assert_array_equal(alloc.sizes, [len(s) for s in alloc.subsets])

    def test_greedy_optimality(self):
        # every selected sample at exit k beats every sample left in the pool
        rng = RngStream(4)
        conf = rng.uniform(0.0, 1.0, (30, 3))
        alloc = allocate_meta(conf, 0.8)
        claimed = set()
        for k in range(2):
            chosen = alloc.subsets[k]
            claimed |= set(chosen.tolist())
            pool = [i for i in range(30) if i not in claimed]
            if chosen.size and pool:
                assert conf[chosen, k].min() >= conf[pool, k].max() or np.isclose(
                    conf[chosen, k].min(), conf[pool, k].max()
                )

    def test_tie_break_prefers_lower_index(self):
        conf = np.array([[0.5, 0.1], [0.5, 0.1], [0.5, 0.1], [0.5, 0.1]])
        alloc = allocate_meta(conf, 1.0)
        np.testing.assert_array_equal(np.sort(alloc.subsets[0]), [0, 1])

    def test_subset_order_descending_confidence(self):
        conf = RngStream(5).uniform(0.0, 1.0, (20, 3))
        alloc = allocate_meta(conf, 0.75)
        for k in range(2):
            vals = conf[alloc.subsets[k], k]
            assert np.all(np.diff(vals) <= 0)

    def test_errors(self):
        with pytest.raises(ShapeError):
            allocate_meta(np.zeros(4), 1.0)
        with pytest.raises(DomainError):
            allocate_meta(np.zeros((0, 3)), 1.0)


class TestGreedySubsets:
    """The first exit takes the head of its order unfiltered: bitwise the
    claimed-mask filter's subsets, which claim nothing before it."""

    @staticmethod
    def filtered(orders, sizes):
        claimed = np.zeros(orders.shape[1], dtype=bool)
        subsets = []
        for order, take in zip(orders, sizes[:-1]):
            chosen = order[~claimed[order]][: int(take)]
            claimed[chosen] = True
            subsets.append(chosen)
        subsets.append(np.flatnonzero(~claimed))
        return subsets

    @pytest.mark.parametrize("table", ["random", "tied", "constant"])
    @pytest.mark.parametrize("first", ["zero", "all", "half"])
    def test_matches_the_filtered_form(self, table, first):
        rng = np.random.default_rng(11)
        n, k = 12, 4
        conf = rng.uniform(size=(n, k))
        if table == "tied":
            conf = np.round(conf * 3.0) / 3.0  # four levels: many ties inside each exit
        elif table == "constant":
            conf = np.full((n, k), 0.5)
        take = {"zero": 0, "all": n, "half": n // 2}[first]
        rest = n - take
        sizes = np.array([take, rest // 3, rest // 3, rest - 2 * (rest // 3)], dtype=np.int64)
        orders = _exit_orders(conf)
        got, want = _greedy_subsets(orders, sizes), self.filtered(orders, sizes)
        assert len(got) == len(want) == k
        for g, w, size in zip(got, want, sizes, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes() and g.size == size


class TestSortOnce:
    """One stable sort per exit, shared by every q, against the shrinking-remainder argsort."""

    @given(tied_tables(), st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_subsets_and_grid_match_shrinking_argsort(self, conf, grid):
        thresholds = calibrate_threshold_grid(conf, grid)
        assert thresholds.shape == (len(grid), conf.shape[1])
        for q, eps in zip(grid, thresholds):
            want = shrinking_argsort_oracle(conf, q)
            got = allocate_meta(conf, q).subsets
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            assert eps.tobytes() == oracle_thresholds(conf, want).tobytes()
            assert eps.tobytes() == calibrate_thresholds(conf, q).tobytes()

    def test_grid_errors(self):
        with pytest.raises(ShapeError):
            calibrate_threshold_grid(np.zeros(4), [1.0])
        with pytest.raises(DomainError):
            calibrate_threshold_grid(np.zeros((0, 3)), [1.0])
        with pytest.raises(DomainError):
            calibrate_threshold_grid(np.zeros((4, 3)), [1.0, -1.0])


class TestCalibration:
    def test_half_fraction_example(self):
        # exit-1 confidences [0.9, 0.8, 0.7, 0.6], two samples exit -> eps 0.8
        conf = np.column_stack([[0.9, 0.8, 0.7, 0.6], [0.5] * 4])
        eps = calibrate_thresholds(conf, 1.0)
        assert eps[0] == 0.8
        assert eps[-1] == 0.0

    def test_empty_quota_gets_sentinel(self):
        conf = RngStream(6).uniform(0.0, 1.0, (3, 2))
        eps = calibrate_thresholds(conf, 100.0)  # f_1 tiny -> N_1 = 0
        assert eps[0] == EMPTY_EXIT_SENTINEL
        assert eps[0] > 1.0

    def test_round_trip_reproduces_counts(self):
        rng = RngStream(7)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            k = int(rng.integers(2, 6))
            q = float(rng.uniform(0.1, 2.5, ()))
            conf = rng.uniform(0.0, 1.0, (n, k))
            alloc = allocate_meta(conf, q)
            eps = calibrate_thresholds(conf, q)
            decided = exit_decisions(conf, eps)
            counts = np.bincount(decided, minlength=k)
            np.testing.assert_array_equal(counts, alloc.sizes)


class TestDynamicInference:
    @staticmethod
    def outputs_for(conf, labels=None, predictions=None):
        n, k = conf.shape
        labels = np.zeros(n, dtype=np.int64) if labels is None else labels
        predictions = np.zeros((n, k), dtype=np.int64) if predictions is None else predictions
        losses = np.zeros((n, k))
        return ExitOutputs(losses, np.asarray(conf, dtype=np.float64), predictions, labels)

    def test_zero_thresholds_exit_first(self):
        conf = RngStream(8).uniform(0.0, 1.0, (5, 3))
        out = dynamic_infer(self.outputs_for(conf), [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.exit_indices, np.zeros(5, dtype=int))
        np.testing.assert_array_equal(out.exit_counts, [5, 0, 0])

    def test_unreachable_thresholds_exit_last(self):
        conf = RngStream(9).uniform(0.0, 1.0, (5, 3))
        out = dynamic_infer(self.outputs_for(conf), [1.5, 1.5, 0.0])
        np.testing.assert_array_equal(out.exit_indices, np.full(5, 2))

    def test_first_clearing_exit_wins(self):
        conf = np.array([[0.5, 0.95, 0.99]])
        out = dynamic_infer(self.outputs_for(conf), [0.9, 0.9, 0.0])
        assert out.exit_indices[0] == 1

    def test_last_exit_accepts_even_above_zero_threshold(self):
        conf = np.array([[0.1, 0.1]])
        decided = exit_decisions(conf, [0.9, 0.9])
        assert decided[0] == 1

    def test_misaligned_thresholds_are_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"confidences \(1, 2\) and thresholds \(3,\) do not align"):
            exit_decisions(np.array([[0.1, 0.1]]), [0.9, 0.9, 0.0])

    def test_accuracy_and_predictions_route_correctly(self):
        conf = np.array([[0.95, 0.5], [0.1, 0.5]])
        predictions = np.array([[1, 0], [0, 1]])
        labels = np.array([1, 1])
        out = dynamic_infer(self.outputs_for(conf, labels, predictions), [0.9, 0.0])
        np.testing.assert_array_equal(out.exit_indices, [0, 1])
        np.testing.assert_array_equal(out.predictions, [1, 1])
        assert out.accuracy == 1.0

    def test_real_model_replay_oracle(self):
        # per-sample replay of the first-threshold rule on real outputs
        config = BackboneConfig(4, (5, 4, 3), 3)
        params = init_params(config, RngStream(10).child("init"))
        data = RngStream(11)
        x = data.standard_normal((40, 4))
        y = data.integers(0, 3, 40).astype(np.int64)
        outs = forward_all(params, x, y)
        eps = calibrate_thresholds(outs.confidences, 0.75)
        result = dynamic_infer(outs, eps)
        for i in range(40):
            expected = config.num_exits - 1
            for k in range(config.num_exits - 1):
                if outs.confidences[i, k] >= eps[k]:
                    expected = k
                    break
            assert result.exit_indices[i] == expected
            assert result.predictions[i] == outs.predictions[i, expected]
            assert result.correct[i] == (outs.predictions[i, expected] == y[i])


def argmax_decisions(conf, eps):
    """`exit_decisions` as it was first written: the first passing column of
    a pass table whose last column is forced true."""
    passes = np.asarray(conf, dtype=np.float64) >= np.asarray(eps, dtype=np.float64)[None, :]
    passes[:, -1] = True
    return np.argmax(passes, axis=1)


def outputs_for_table(draw, conf, classes=3):
    """ExitOutputs over conf with drawn predictions and labels."""
    n, k = conf.shape
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)), dtype=np.int64)
    predictions = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n * k, max_size=n * k)),
                           dtype=np.int64).reshape(n, k)
    return ExitOutputs(np.zeros((n, k)), conf, predictions, labels)


@st.composite
def sweep_cases(draw):
    """Val and test outputs on tied tables of one exit count (2 to 6) and
    separate row counts, a backbone config of that depth, and a q grid
    wide enough to leave exits empty."""
    k = draw(st.integers(2, 6))
    val = outputs_for_table(draw, draw(tied_tables(st.just(k))))
    test = outputs_for_table(draw, draw(tied_tables(st.just(k))))
    widths = tuple(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)))
    grid = draw(st.lists(st.floats(0.05, 40.0), min_size=1, max_size=6))
    return BackboneConfig(3, widths, 3), val, test, grid


class TestGridReplay:
    """`score_sweep` replays a whole grid through `exit_masks`: bitwise the
    rows of per-q calibration plus `dynamic_infer`."""

    @staticmethod
    def per_q_rows(config, val, test, grid):
        costs = count_mul_adds(config)
        rows = []
        for q in grid:
            thresholds = calibrate_thresholds(val.confidences, float(q))
            result = dynamic_infer(test, thresholds)
            rows.append({
                "q": float(q),
                "thresholds": [float(e) for e in thresholds],
                "exit_counts": [int(c) for c in result.exit_counts],
                "accuracy": result.accuracy,
                "expected_muladds": expected_cost(result.exit_counts, costs),
            })
        return rows

    @given(sweep_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_per_q_dynamic_infer(self, case):
        config, val, test, grid = case
        got = score_sweep(config, val, test, grid)
        assert got == self.per_q_rows(config, val, test, grid)
        for row in got:
            assert type(row["accuracy"]) is float
            assert all(type(c) is int for c in row["exit_counts"])

    @pytest.mark.parametrize("val_rows, test_rows", [(1, 1), (1, 7), (9, 1), (5, 8)])
    def test_one_row_tables_and_empty_exits(self, val_rows, test_rows):
        rng = np.random.default_rng(val_rows * 10 + test_rows)
        config = BackboneConfig(3, (4, 3, 5, 2), 3)

        def outs(n):
            conf = np.round(rng.uniform(size=(n, 4)) * 4) / 4
            conf[:, 1] = 1.0  # a saturated column
            return ExitOutputs(np.zeros((n, 4)), conf, rng.integers(0, 3, (n, 4)), rng.integers(0, 3, n))

        val, test = outs(val_rows), outs(test_rows)
        grid = [0.05, 0.5, 1.0, 3.0, 40.0]
        got = score_sweep(config, val, test, grid)
        assert any(EMPTY_EXIT_SENTINEL in row["thresholds"] for row in got)
        assert got == self.per_q_rows(config, val, test, grid)

    @given(tied_tables(st.integers(1, 6)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exit_decisions_equal_the_argmax_form(self, conf, data):
        k = conf.shape[1]
        levels = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0, EMPTY_EXIT_SENTINEL])
        eps = np.array(data.draw(st.lists(levels, min_size=k, max_size=k)))
        got, want = exit_decisions(conf, eps), argmax_decisions(conf, eps)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_masks_partition_the_rows(self):
        conf_t = np.array([[0.9, 0.2, 0.9, 0.1], [0.8, 0.8, 0.1, 0.1], [0.0, 0.0, 0.0, 0.0]])
        masks = exit_masks(conf_t, np.array([0.5, 0.5, 0.9]))
        np.testing.assert_array_equal(masks, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

    def test_exit_count_mismatch_is_a_shape_error(self):
        config = BackboneConfig(3, (4, 4, 4), 3)
        val = TestDynamicInference.outputs_for(np.full((5, 3), 0.5))
        test = TestDynamicInference.outputs_for(np.full((6, 2), 0.5))
        with pytest.raises(ShapeError, match="val outputs have 3 exits, test outputs 2"):
            score_sweep(config, val, test, [1.0])
        with pytest.raises(ShapeError):
            score_sweep(config, test, val, [1.0])


class TestExpectedCost:
    def test_all_mass_at_first_exit(self):
        assert expected_cost([10, 0, 0], [3.0, 5.0, 9.0]) == 3.0

    def test_halved_mass_example(self):
        assert expected_cost([5, 5], [10.0, 20.0]) == 15.0

    def test_per_sample_summation_oracle(self):
        rng = RngStream(12)
        counts = rng.integers(0, 30, 4)
        counts[0] += 1  # keep the total positive
        costs = np.sort(rng.uniform(1.0, 50.0, 4))
        per_sample = np.repeat(costs, counts)
        np.testing.assert_allclose(
            expected_cost(counts, costs), per_sample.mean(), atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            expected_cost([-1, 2], [1.0, 2.0])
        with pytest.raises(DomainError):
            expected_cost([0, 0], [1.0, 2.0])
        with pytest.raises(ShapeError):
            expected_cost([1, 2, 3], [1.0, 2.0])


class TestCostMonotonicity:
    def test_fixed_table_nondecreasing_over_q_grid(self):
        # calibrate on one table, infer on another, ascending q must not
        # lower the expected cost
        rng = RngStream(13)
        val_conf = rng.uniform(0.0, 1.0, (400, 4))
        test_conf = rng.uniform(0.0, 1.0, (400, 4))
        costs = count_mul_adds(BackboneConfig(16, (16, 16, 16, 16), 8)).astype(np.float64)
        grid = np.linspace(0.05, 2.0, 40)
        outputs = TestDynamicInference.outputs_for(test_conf)
        values = []
        for q in grid:
            eps = calibrate_thresholds(val_conf, float(q))
            result = dynamic_infer(outputs, eps)
            values.append(expected_cost(result.exit_counts, costs))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9), f"violations at {np.flatnonzero(diffs < -1e-9)}"
