"""exitweave benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train-learned-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with the library untouched.
`--trace 1` spends the first half of the time untraced and the second
half with every traced function wrapped (see bench_trace.py), and prints
the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller report,
with the environment and the parameter digest, goes to
`.bench_out/<workload>-seed<seed>-trace<t>.json`; a traced run also
writes its spans next to it as `.npz`.

BLAS thread pools are capped at THREAD_CAP before numpy is imported.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_CAP = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "EXITWEAVE_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_trace as trace  # noqa: E402
import bench_workloads as bench  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5  # set-ups per end-to-end run; setup_s is their median

# End-to-end metric -> what it is called on each kind of workload.
ALIASES = {
    "train": {"op_cost_p50": "step_cost_p50", "op_ms_p50": "step_ms_p50", "op_ms_p90": "step_ms_p90",
              "samples_per_s": "train_samples_per_s", "quality_acc": "val_dynamic_acc"},
    "eval": {"op_cost_p50": "sweep_cost_p50", "op_ms_p50": "sweep_ms_p50", "op_ms_p90": "sweep_ms_p90",
             "samples_per_s": "eval_rows_per_s", "quality_acc": "sweep_mean_acc"},
}


def import_library():
    """Import exitweave from the checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "exitweave" / "__init__.py").is_file():
        print(f"benchmark: no exitweave package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import exitweave
    for module in ("backbone", "checkpoint", "datahub", "errors", "evaluate",
                   "exitpolicy", "numkit", "trainer", "wpn"):
        getattr(exitweave, module)
    return exitweave


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "exitweave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "host": platform.node(),
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_cap": int(THREAD_CAP),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def ms(times, pct: float) -> float:
    """Percentile of per-operation seconds, in milliseconds."""
    return float(np.percentile(times, pct)) * 1e3


def cost(times, refs) -> float:
    """Median of per-operation time over the yardstick time measured before it."""
    return float(np.median(np.asarray(times) / np.asarray(refs)))


def run_end_to_end(ew, name, seed, seconds, ckpt, import_s, ops_path):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = bench.make_workload(name, ew, seed, ckpt)
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    times, refs, failed = bench.run_ops(workload, time.perf_counter() + seconds)
    np.savez(ops_path, op_s=times, ref_s=refs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_cost_p50": {"value": cost(times, refs), "unit": "ref"},
        "quality_acc": {"value": workload.accuracy, "unit": "fraction"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
    }
    # Wall-clock figures as measured. They follow the host's speed, which
    # on a shared host changes by more than any bound could allow, so
    # they carry no bound (see README.md).
    observed = {
        "op_ms_p50": {"value": ms(times, 50), "unit": "ms"},
        "op_ms_p90": {"value": ms(times, 90), "unit": "ms"},
        "samples_per_s": {"value": workload.samples(len(times)) / sum(times), "unit": "1/s"},
        "ref_ms_p50": {"value": ms(refs, 50), "unit": "ms"},
    }
    extra = {"observed": observed, "setup_times_s": setup_times, "import_s": import_s}
    return workload, times, failed, metrics, extra


def run_traced(ew, name, seed, seconds, ckpt, span_path):
    workload = bench.make_workload(name, ew, seed, ckpt)
    workload.setup()
    untraced, untraced_refs, failed = bench.run_ops(workload, time.perf_counter() + seconds / 2)
    tracer = trace.Tracer(ew)
    tracer.install()
    # One traced set-up, for the layers that only run there.
    tracer.op = trace.SETUP_OP
    span = tracer.open(trace.SETUP_SPAN)
    bench.make_workload(name, ew, seed, ckpt).setup()
    tracer.close(span)
    tracer.op = trace.NO_OP
    traced, traced_refs, traced_failed = bench.run_ops(
        workload, time.perf_counter() + seconds / 2, tracer)
    if isinstance(workload, bench.Training):
        workload.val_accuracy()  # one traced calibration for the quota replay
    tracer.save(span_path)
    # Overhead: traced minus untraced median cost, in ms at the run's
    # median yardstick speed.
    ref_ms = ms(untraced_refs + traced_refs, 50)
    overhead_ms = (cost(traced, traced_refs) - cost(untraced, untraced_refs)) * ref_ms
    metrics = tracer.per_layer(overhead_ms)
    observed = {
        "untraced_op_ms_p50": {"value": ms(untraced, 50), "unit": "ms"},
        "traced_op_ms_p50": {"value": ms(traced, 50), "unit": "ms"},
        "ref_ms_p50": {"value": ref_ms, "unit": "ms"},
    }
    extra = {"observed": observed, "untraced_ops": len(untraced), "traced_ops": len(traced),
             "spans": len(tracer.span_name), "calls_per_op": tracer.calls_per_op()}
    return workload, untraced + traced, failed + traced_failed, metrics, extra


def run_one(args) -> int:
    ew = import_library()
    import_s = time.perf_counter() - START
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ckpt = OUT_DIR / f"ckpt-{os.getpid()}.json"
    try:
        if args.trace:
            workload, times, failed, metrics, extra = run_traced(
                ew, args.workload, args.seed, args.seconds, ckpt, OUT_DIR / f"{stem}-spans.npz")
        else:
            workload, times, failed, metrics, extra = run_end_to_end(
                ew, args.workload, args.seed, args.seconds, ckpt, import_s,
                OUT_DIR / f"{stem}-ops.npz")
    finally:
        ckpt.unlink(missing_ok=True)
    aliases = ALIASES["eval" if args.workload == "eval-sweep" else "train"]
    env = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operation": workload.op_name, "environment": env, "quality": workload.quality(),
        "attempted": len(times), "failed": failed, "metrics": metrics, "details": extra,
        "aliases": aliases,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(times)} x {workload.op_name}, {failed} failed, "
          + ", ".join(f"{k}={v}" for k, v in workload.quality().items()))
    for heading, group in (("bounded", metrics), ("unbounded", extra["observed"])):
        for name, metric in group.items():
            print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']:9s} "
                  f"{aliases.get(name, ''):20s} {heading}")
    print(json.dumps({"correct": failed == 0, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; summarise them on the last line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in bench.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(done.stdout, end="")
        if done.returncode != 0:
            status = done.returncode
            summary["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
