"""The claim rule and the no-regression verdicts of the pair-comparison
tool, on synthetic pairs.

`tools/bench_pairs.py` turns alternating runs of two checkouts into a
verdict on a claimed gain, and one per bounded metric on a regression. No benchmark runs here: each case builds the
per-run figures the tool reads from a report and checks the verdict.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
METRIC = "op_cost_p50"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(cost: float, failed: int = 0) -> dict:
    """One run's figures as `figures` returns them."""
    return {"op_cost_p50": cost, "quality_acc": 0.9, "peak_rss_mb": 60.0, "setup_s": 0.2,
            "op_ms_p50": 10.0 * cost, "ref_ms_p50": 10.0, "attempted": 100, "failed": failed, "digest": "same"}


def verdict(parent: list[float], change: list[float], parent_failed=0, change_failed=0,
            change_attempted=100) -> dict:
    tool = load_tool()
    pairs = [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change, strict=True)]
    pairs[0]["parent"]["failed"] = parent_failed
    pairs[-1]["change"]["failed"] = change_failed
    for pair in pairs:
        pair["change"]["attempted"] = change_attempted
    return tool.claim_verdict(tool.summarize(pairs), METRIC)


# the parent's ten runs: median 1.045, IQR 0.045
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_nine_wins_with_a_gap_over_the_iqr_is_met():
    result = verdict(PARENT, [0.80] * 9 + [1.20])
    assert result["wins"] == 9 and result["pairs"] == 10
    assert result["median_gap"] > result["parent_iqr"]
    assert result["met"]


def test_eight_wins_is_not_met():
    result = verdict(PARENT, [0.80] * 8 + [1.20] * 2)
    assert result["wins"] == 8 and result["median_gap"] > result["parent_iqr"]
    assert not result["met"]


def test_ties_count_for_neither_side():
    tool = load_tool()
    change = [0.80] * 8 + PARENT[8:]  # the last two pairs tie
    pairs = [{"parent": side(p), "change": side(c)} for p, c in zip(PARENT, change)]
    row = tool.summarize(pairs)[METRIC]
    assert row["change_better_pairs"] == 8 and row["ties"] == 2 and row["pairs"] == 10
    assert not tool.claim_verdict(tool.summarize(pairs), METRIC)["met"]
    assert verdict(PARENT, [0.80] * 9 + PARENT[9:])["met"]  # 9 wins and a tie


def test_gap_within_the_iqr_is_not_met():
    result = verdict(PARENT, [p - 0.01 for p in PARENT])
    assert result["wins"] == 10 and not result["met"]


def test_more_failed_operations_is_not_met():
    change = [0.80] * 10
    assert verdict(PARENT, change)["met"]
    result = verdict(PARENT, change, change_failed=1)
    assert result["failed_share"] == {"parent": 0.0, "change": 1 / 1000}
    assert not result["met"]
    assert verdict(PARENT, change, parent_failed=1, change_failed=1)["met"]
    # a faster change attempts more operations, so it can fail more of them at a smaller share
    result = verdict(PARENT, change, parent_failed=1, change_failed=2, change_attempted=300)
    assert result["failed_ops"] == {"parent": 1, "change": 2}
    assert result["failed_share"]["change"] < result["failed_share"]["parent"]
    assert not result["met"]
    assert verdict(PARENT, change, parent_failed=1, change_failed=1, change_attempted=300)["met"]


def regression_verdict(parent: list[float], change: list[float], metric: str = METRIC) -> str:
    tool = load_tool()
    pairs = [{"parent": side(1.0), "change": side(1.0)} for _ in parent]
    for pair, old, new in zip(pairs, parent, change, strict=True):
        pair["parent"][metric], pair["change"][metric] = old, new
    return tool.summarize(pairs)[metric]["verdict"]


def test_bounds_are_the_benchmark_files():
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert load_tool().bounds() == bounds and METRIC in bounds


def test_a_median_worse_by_more_than_the_bound_regressed():
    # bound 0.2 of the parent's median 1.045 is 0.209
    assert regression_verdict(PARENT, [p + 0.25 for p in PARENT]) == "regressed"
    assert regression_verdict(PARENT, [p + 0.20 for p in PARENT]) == "within_bound"
    assert regression_verdict(PARENT, PARENT) == "within_bound"


def test_a_higher_is_better_metric_regresses_downwards():
    parent = [0.90] * 10
    assert regression_verdict(parent, [0.70] * 10, "quality_acc") == "regressed"  # bound 0.15: 0.135
    assert regression_verdict(parent, [0.80] * 10, "quality_acc") == "within_bound"
    assert regression_verdict(parent, [1.20] * 10, "quality_acc") == "within_bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.0, IQR 0.375 > 0.2
    assert regression_verdict(wide, wide) == "unresolved"
    assert regression_verdict(wide, [0.55] * 9 + [1.0]) == "unresolved"
    # unless every change run beats every parent run
    assert regression_verdict(wide, [0.55] * 10) == "within_bound"
    # a median worse by more than the bound is a regression however wide the spread
    assert regression_verdict(wide, [w + 0.3 for w in wide]) == "regressed"


def test_only_bounded_metrics_get_a_verdict():
    tool = load_tool()
    summary = tool.summarize([{"parent": side(1.0), "change": side(1.0)}] * 3)
    assert {m for m in tool.METRICS if "verdict" in summary[m]} == set(tool.bounds())
    assert "verdict" not in summary["op_ms_p50"]
    assert summary[METRIC]["bound"] == tool.bounds()[METRIC]


def test_the_yardstick_is_reported_beside_the_wall_time():
    # a change whose operations take the same time while the yardstick
    # runs 20 % slower reads as a 17 % lower op_cost_p50: the summary
    # shows both, and judges neither the yardstick nor the wall time
    tool = load_tool()
    pairs = [{"parent": side(1.0), "change": side(1.0 / 1.2)} for _ in range(4)]
    for pair, ref in zip(pairs, (10.0, 11.0, 12.0, 13.0)):
        pair["parent"]["ref_ms_p50"], pair["change"]["ref_ms_p50"] = ref, 1.2 * ref
        pair["change"]["op_ms_p50"] = pair["parent"]["op_ms_p50"]
    summary = tool.summarize(pairs)
    assert list(summary).index("ref_ms_p50") == list(summary).index("op_ms_p50") + 1
    row = summary["ref_ms_p50"]
    assert row["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "iqr": 1.5}
    assert row["change"]["median"] == 13.8 and row["pairs"] == 4
    assert "verdict" not in row and "change_better_pairs" not in row
    assert summary["op_ms_p50"]["ties"] == 4 and summary["op_cost_p50"]["change_better_pairs"] == 4
