"""The package API the benchmark harness relies on.

`perfbench/bench_trace.py` wraps every (module, function) pair in its
TRACED list by name when run with `--trace 1`. A refactor that renames
or drops one of them would break every traced run, so each pair must
resolve on the `exitweave` package. The untraced run leans on more:
`perfbench/bench_workloads.py` builds `TrainState`s and `TrainConfig`s
by keyword, calls `run_training` positionally and reads record keys, so
one operation of each workload must run and report a correct result.
"""

import importlib.util
from pathlib import Path

import exitweave

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_TRACE = PERFBENCH / "bench_trace.py"


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_bench_trace().TRACED
    assert len(traced) > 0
    missing = [
        f"{module}.{name}" for module, name in traced
        if not callable(getattr(getattr(exitweave, module), name, None))
    ]
    assert missing == []


def test_one_untraced_operation_of_each_workload_is_correct(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench_workloads imports bench_trace
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "bench_workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    failed = []
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, exitweave, 1, tmp_path / f"{name}-checkpoint.json")
        workload.setup()
        if not workload.operation()[1]:
            failed.append(name)
    assert failed == []
