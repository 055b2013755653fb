"""The package API the benchmark harness relies on.

`perfbench/bench_trace.py` wraps every (module, function) pair in its
TRACED list by name when run with `--trace 1`. A refactor that renames
or drops one of them would break every traced run, so each pair must
resolve on the `exitweave` package.
"""

import importlib.util
from pathlib import Path

import exitweave

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


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
