"""Span tracing of exitweave's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded exitweave module that binds it. Modules import their
collaborators with `from .x import f`, so patching only the defining
module would miss calls such as `exitweave.trainer.per_sample_grads`.

Each call becomes one span: name, start, end, parent span and the
operation id current when it started. Spans stay in memory as parallel
lists and are written out once, after measuring, by `save`. Self time is
a span's duration minus the time its direct children cover. Counters
(bytes of the per-sample gradient tensor, quota replays) are taken in
the same wrappers, inside a `trace.bookkeeping` span so their cost is
removed from the caller's self time.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (module, function) pairs wrapped by the traced run.
TRACED = (
    ("backbone", "per_sample_grads"),
    ("backbone", "grad_weighted_loss"),
    ("backbone", "pseudo_step"),
    ("backbone", "batch_weighted_grad"),
    ("backbone", "sgd_step"),
    ("backbone", "param_layout"),
    ("backbone", "forward_all"),
    ("wpn", "wpn_forward"),
    ("wpn", "make_weights"),
    ("wpn", "meta_weight_grad"),
    ("wpn", "wpn_backward"),
    ("wpn", "adam_step"),
    ("exitpolicy", "allocate_meta"),
    ("exitpolicy", "allocation_sizes"),
    ("exitpolicy", "calibrate_thresholds"),
    ("exitpolicy", "dynamic_infer"),
    ("trainer", "train_step"),
    ("trainer", "meta_chain"),
    ("evaluate", "dynamic_sweep"),
    ("evaluate", "anytime_accuracy"),
    ("checkpoint", "load_run_checkpoint"),
    ("checkpoint", "save_run_checkpoint"),
    ("datahub", "make_batches"),
    ("datahub", "gen_synthetic_gaussians"),
    ("numkit", "require_finite"),
    ("numkit", "softmax_stable"),
)

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"
BOOKKEEPING = "trace.bookkeeping"
SETUP_OP = -1  # operation id of spans recorded while setting up
NO_OP = -2  # operation id of spans outside set-up and outside operations

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
# "ms" is self time and "calls" the call count, both per operation; the
# two layers that only run while setting up report time per set-up.
LAYER_METRICS = (
    ("backbone.per_sample_grads", "ms"),
    ("backbone.per_sample_grads", "calls"),
    ("backbone.per_sample_grads", "tensor_mb"),
    ("backbone.grad_weighted_loss", "ms"),
    ("backbone.pseudo_step", "ms"),
    ("backbone.batch_weighted_grad", "ms"),
    ("backbone.sgd_step", "ms"),
    ("backbone.param_layout", "calls"),
    ("backbone.forward_all", "ms"),
    ("backbone.forward_all", "calls"),
    ("wpn.wpn_forward", "ms"),
    ("wpn.make_weights", "ms"),
    ("wpn.meta_weight_grad", "ms"),
    ("wpn.wpn_backward", "ms"),
    ("wpn.adam_step", "ms"),
    ("exitpolicy.allocate_meta", "ms"),
    ("exitpolicy.allocate_meta", "calls"),
    ("exitpolicy.allocation_sizes", "ms"),
    ("exitpolicy.calibrate_thresholds", "ms"),
    ("exitpolicy.dynamic_infer", "ms"),
    ("exitpolicy", "quota_match_ratio"),
    ("trainer.train_step", "ms"),
    ("trainer.meta_chain", "ms"),
    ("trainer", "dense_chain_share"),
    ("evaluate.dynamic_sweep", "ms"),
    ("evaluate.anytime_accuracy", "ms"),
    ("checkpoint.load_run_checkpoint", "ms"),
    ("checkpoint.save_run_checkpoint", "ms"),
    ("datahub.make_batches", "ms"),
    ("datahub.gen_synthetic_gaussians", "ms"),
    ("numkit.require_finite", "calls"),
    ("numkit.softmax_stable", "calls"),
    ("trace", "overhead_ms"),
)
SETUP_LAYERS = ("datahub.gen_synthetic_gaussians", "checkpoint.save_run_checkpoint")
# The dense meta-gradient chain whose share of train_step time is reported.
DENSE_CHAIN = ("backbone.per_sample_grads", "backbone.grad_weighted_loss", "wpn.meta_weight_grad")


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.current = -1
        self.op = NO_OP
        self.psg_bytes = 0
        self.quota_cells = 0
        self.quota_matched = 0
        self.originals: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.current)
        self.span_op.append(self.op)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.current = self.span_parent[idx]

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            parent = tracer.current
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0)
            tracer.current = idx
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                tracer.current = parent
            if after is not None:
                book = tracer.open(BOOKKEEPING)
                try:
                    after(args, kwargs, result)
                finally:
                    tracer.close(book)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_psg(self, args, kwargs, result) -> None:
        self.psg_bytes += result.nbytes

    def _replay_quota(self, args, kwargs, result) -> None:
        # Replaying the thresholds on the calibration table should give
        # exactly the quota of every exit (it does unless confidences tie
        # at a quota boundary).
        if self.op == SETUP_OP:
            return
        exitpolicy = self.package.exitpolicy
        conf = np.asarray(args[0] if args else kwargs["val_confidences"], dtype=np.float64)
        q = args[1] if len(args) > 1 else kwargs["q"]
        n, k = conf.shape
        quota = self.originals["exitpolicy.allocation_sizes"](q, k, n)
        counts = np.bincount(exitpolicy.exit_decisions(conf, result), minlength=k)
        self.quota_cells += k
        self.quota_matched += int(np.sum(counts == quota))

    def install(self) -> None:
        """Wrap every TRACED function wherever an exitweave module binds it."""
        hooks = {
            "backbone.per_sample_grads": self._count_psg,
            "exitpolicy.calibrate_thresholds": self._replay_quota,
        }
        prefix = self.package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n.startswith(prefix) and m is not None]
        for module_name, func_name in TRACED:
            home = getattr(self.package, module_name)
            original = getattr(home, func_name)
            name = f"{module_name}.{func_name}"
            self.originals[name] = original
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "op": np.asarray(self.span_op, dtype=np.int64),
            "start_ns": np.asarray(self.span_start, dtype=np.int64),
            "end_ns": np.asarray(self.span_end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def calls_per_op(self) -> dict[str, float]:
        """Calls per timed operation of every traced function."""
        a = self.arrays()
        in_op = a["op"] >= 0
        n_ops = max(int(np.sum(in_op & (a["name"] == self.name_ids.get(OP_SPAN, -1)))), 1)
        counts = np.bincount(a["name"][in_op], minlength=len(self.names))
        return {f"{m}.{f}": int(counts[self.name_ids[f"{m}.{f}"]]) / n_ops for m, f in TRACED}

    def per_layer(self, overhead_ms: float) -> dict[str, dict]:
        """Per-layer metrics from the recorded spans and counters.

        Time and calls of spans inside timed operations (op id >= 0) are
        divided by the number of operations; SETUP_LAYERS are divided by
        the number of traced set-ups instead. The tracing overhead is
        measured by the caller.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = a["parent"] >= 0
        self_ns = dur - np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        in_op = a["op"] >= 0
        in_setup = a["op"] == SETUP_OP

        def spans(layer: str, phase: np.ndarray) -> np.ndarray:
            return phase & (a["name"] == self.name_ids.get(layer, -1))

        n_ops = max(int(spans(OP_SPAN, in_op).sum()), 1)
        n_setups = max(int(spans(SETUP_SPAN, in_setup).sum()), 1)
        psg_calls = int(np.sum(a["name"] == self.name_ids["backbone.per_sample_grads"]))
        step_ns = float(dur[spans("trainer.train_step", in_op)].sum())
        chain_ns = sum(float(dur[spans(layer, in_op)].sum()) for layer in DENSE_CHAIN)
        metrics: dict[str, dict] = {}
        for layer, kind in LAYER_METRICS:
            if kind == "ms" and layer in SETUP_LAYERS:
                value, unit = float(self_ns[spans(layer, in_setup)].sum()) / 1e6 / n_setups, "ms/setup"
            elif kind == "ms":
                value, unit = float(self_ns[spans(layer, in_op)].sum()) / 1e6 / n_ops, "ms/op"
            elif kind == "calls":
                value, unit = int(spans(layer, in_op).sum()) / n_ops, "calls/op"
            elif kind == "tensor_mb":
                value, unit = (self.psg_bytes / 1e6 / psg_calls if psg_calls else 0.0), "MB"
            elif kind == "quota_match_ratio":
                value, unit = (self.quota_matched / self.quota_cells if self.quota_cells else 0.0), "ratio"
            elif kind == "dense_chain_share":
                value, unit = (100.0 * chain_ns / step_ns if step_ns else 0.0), "%"
            else:  # overhead_ms
                value, unit = overhead_ms, "ms"
            metrics[f"{layer}.{kind}"] = {"value": value, "unit": unit}
        return metrics
