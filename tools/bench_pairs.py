"""Compare two checkouts with alternating runs of the benchmark.

    python3 tools/bench_pairs.py --parent OLD --change NEW --out BENCH_name.json \
        --name name --what "what the change does" \
        --workload train-selection-desk=2141 --workload eval-sweep=2101 \
        --pairs 10 --claim train-selection-desk/op_cost_p50

runs `python3 perfbench/run.py --workload W --seed S --trace 0` inside
each checkout, one side after the other, at perfbench's own run length.
Workload W runs on the seeds S, S+1, ..., one pair per seed, and the
side that runs first alternates from pair to pair. Each run's figures
come from the report that perfbench writes under the checkout's
`.bench_out/`.

The output holds the environment, both sides' source digests, every
pair, and per workload and metric the median and quartiles of each
side, the pairs the change wins and the ties, and the median and
quartiles of the yardstick's time (`ref_ms_p50`). The parameter or sweep
digest of both sides is compared pair by pair. With --claim, it also
says whether the change won at least 9 of 10 pairs on that metric with
a median gap wider than the parent's interquartile range, while failing
no more operations than the parent, neither in count nor as a share of
those it attempted. Every metric BENCHMARK.json bounds
gets a no-regression verdict (`bound_verdict`). The file is
rewritten after every pair, so an interrupted comparison keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np

# metric -> the direction that is better; the four bounded ones of BENCHMARK.json, then wall time
METRICS = {"op_cost_p50": "lower", "quality_acc": "higher", "peak_rss_mb": "lower",
           "setup_s": "lower", "op_ms_p50": "lower"}
# the yardstick's time, which op_cost_p50 divides each operation's time by: reported, never judged
YARDSTICK = "ref_ms_p50"
SIDES = ("parent", "change")
CLAIM_RULE = ("change wins at least 9 of 10 pairs, the median gap exceeds the parent's IQR, "
              "and the change fails no more operations than the parent, in count and in share")


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """The report of one benchmark run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {done.returncode}")
    return json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())


def figures(report: dict) -> dict:
    """The bounded metrics of a run, and its wall time, yardstick, counts and output digest."""
    out = {name: round(spec["value"], 4) for name, spec in report["metrics"].items()}
    for name, spec in report["details"]["observed"].items():
        if name.endswith("ms_p50"):
            out[name] = round(spec["value"], 4)
    out["attempted"] = report["attempted"]
    out["failed"] = report["failed"]
    quality = report["quality"]
    out["digest"] = quality.get("params_sha256", quality.get("sweep_sha256"))
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "iqr": round(q3 - q1, 4)}


@cache
def bounds() -> dict:
    """metric -> its end-to-end bound in BENCHMARK.json, a fraction of the parent's median."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def bound_verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """`regressed` if the change's median is worse than the parent's by
    more than bound times the parent's median; else `unresolved` if the
    parent's IQR is wider than that and not every change run beats every
    parent run; else `within_bound`."""
    sign = 1.0 if better == "higher" else -1.0
    old, new = sign * np.asarray(old, dtype=float), sign * np.asarray(new, dtype=float)
    limit = bound * abs(float(np.median(old)))
    if float(np.median(old) - np.median(new)) > limit:
        return "regressed"
    q1, q3 = np.percentile(old, [25, 75])
    if q3 - q1 > limit and not new.min() > old.max():
        return "unresolved"
    return "within_bound"


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for metric, better in METRICS.items():
        old = [p["parent"][metric] for p in pairs]
        new = [p["change"][metric] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        summary[metric] = {
            "better": better,
            "parent": quartiles(old),
            "change": quartiles(new),
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
            "ties": sum(a == b for a, b in zip(old, new)),
            "pairs": len(pairs),
        }
        if metric in bounds():
            summary[metric]["bound"] = bounds()[metric]
            summary[metric]["verdict"] = bound_verdict(old, new, better, bounds()[metric])
    # beside op_ms_p50, so that a shift of the yardstick shows next to an op_cost_p50 claim
    summary[YARDSTICK] = {side: quartiles([p[side][YARDSTICK] for p in pairs]) for side in SIDES}
    summary[YARDSTICK]["pairs"] = len(pairs)
    summary["failed_ops"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    summary["attempted_ops"] = {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES}
    summary["identical_digests"] = sum(p["parent"]["digest"] == p["change"]["digest"] for p in pairs)
    return summary


def claim_verdict(summary: dict, metric: str) -> dict:
    row = summary[metric]
    gap = abs(row["change"]["median"] - row["parent"]["median"])
    wins = row["change_better_pairs"]
    direction_ok = (row["change"]["median"] < row["parent"]["median"]) == (row["better"] == "lower")
    # a gain does not count when more operations fail: neither more of them (a faster change
    # attempts more) nor a larger share (failed over attempted, summed over pairs)
    failed_ops = summary["failed_ops"]
    failed = {side: failed_ops[side] / max(summary["attempted_ops"][side], 1) for side in SIDES}
    return {"wins": wins, "pairs": row["pairs"], "median_gap": round(gap, 4),
            "parent_iqr": row["parent"]["iqr"], "failed_ops": failed_ops, "failed_share": failed,
            "met": (direction_ok and wins * 10 >= 9 * row["pairs"] and gap > row["parent"]["iqr"]
                    and failed_ops["change"] <= failed_ops["parent"] and failed["change"] <= failed["parent"])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout the change is measured against")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--name", required=True)
    parser.add_argument("--what", required=True, help="one paragraph on what the change does")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=FIRST_SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC")
    args = parser.parse_args()

    workloads = {}
    for item in args.workload:
        name, _, seed = item.partition("=")
        workloads[name] = int(seed)
    claim = None
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition("/")
        if claim_workload not in workloads or claim_metric not in METRICS:
            parser.error(f"--claim {args.claim}: not a measured workload and metric")
        claim = {"metric": claim_metric, "workload": claim_workload, "rule": CLAIM_RULE}

    seeds = ", ".join(f"{first}-{first + args.pairs - 1} ({name})" for name, first in workloads.items())
    doc = {
        "name": args.name,
        "what": args.what,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0",
        "protocol": None,
        "environment": None,
        "parent": None,
        "change": None,
        "claim": claim,
        "workloads": {},
    }

    for name, first_seed in workloads.items():
        pairs = []
        for i in range(args.pairs):
            seed = first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                report = run_side(getattr(args, side), name, seed)
                env = report["environment"]
                doc[side] = {"git_sha": env.pop("git_sha"), "src_sha256": env.pop("src_sha256")}
                doc["environment"] = env
                doc["protocol"] = (
                    f"parent and change run from separate checkouts on the same host, one after the other, "
                    f"alternating which side runs first; {args.pairs} pairs per workload on seeds {seeds}; "
                    f"{report['seconds']:g} s per run; written by tools/bench_pairs.py")
                pair[side] = figures(report)
                print(f"{name} seed {seed} {side}: done", file=sys.stderr, flush=True)
            pairs.append(pair)
            doc["workloads"][name] = {"summary": summarize(pairs), "pairs": pairs}
            if claim and name == claim["workload"]:
                claim["verdict"] = claim_verdict(doc["workloads"][name]["summary"], claim["metric"])
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
