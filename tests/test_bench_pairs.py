"""The claim rule of the pair-comparison tool, on synthetic pairs.

`tools/bench_pairs.py` turns alternating runs of two checkouts into a
verdict on a claimed gain. No benchmark runs here: each case builds the
per-run figures the tool reads from a report and checks the verdict.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRIC = "op_cost_p50"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(cost: float, failed: int = 0) -> dict:
    """One run's figures as `figures` returns them."""
    return {"op_cost_p50": cost, "quality_acc": 0.9, "peak_rss_mb": 60.0, "setup_s": 0.2,
            "op_ms_p50": 10.0 * cost, "attempted": 100, "failed": failed, "digest": "same"}


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
