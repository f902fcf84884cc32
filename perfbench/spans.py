"""In-memory span recorder and the layer instrumentation of the benchmark.

The program itself carries no tracing.  When a run is traced, this module
wraps the public entry points of each ``repro`` layer from outside (module
functions and class methods), records one span per call -- name, start,
end, parent span, run id, process id and a few counters read from the
call's arguments or return value -- and keeps them in memory until the
process writes them out with :meth:`SpanRecorder.dump`.

Only the process that installed the instrumentation records spans, plus
the process-pool workers of a sweep (each pool task adopts the recorder
and writes its spans when the task ends).  Cluster worker processes are
forked from a traced parent but record nothing: their wrappers fall
straight through to the original function.

:func:`layer_metrics` folds a list of spans into the per-layer metrics the
benchmark reports; self time is a span's duration minus the time covered
by its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from harness import percentile

#: Layers of the program, named after its modules, in report order.
LAYERS = (
    "cli", "datasets", "objectives", "core", "runtime", "async_engine",
    "cluster", "kernels", "metrics", "solvers", "experiments", "serving",
)


class SpanRecorder:
    """Collects spans of the current process (and of adopted pool tasks)."""

    def __init__(self, run_id: str = "0") -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._active_pids = {os.getpid()}

    # ------------------------------------------------------------------ #
    def active(self) -> bool:
        return os.getpid() in self._active_pids

    def adopt_process(self, run_id: str) -> None:
        """Start recording in this (forked) process, dropping inherited spans."""
        self._active_pids.add(os.getpid())
        self.spans = []
        self.run_id = run_id
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "run": self.run_id,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        stack.append(span["id"])
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record an already-measured interval as a root span."""
        self.spans.append({
            "id": next(self._ids), "parent": None, "name": name, "run": self.run_id,
            "pid": os.getpid(), "start": start, "end": end, "attrs": attrs,
        })

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


# --------------------------------------------------------------------- #
# Wrapping
# --------------------------------------------------------------------- #
def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
    """``fn`` with a span around each call; ``attrs(result, *args, **kw)`` adds counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active():
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs is not None:
            try:
                span["attrs"] = attrs(result, *args, **kwargs)
            except Exception as exc:  # a counter must never break the program
                span["attrs"] = {"error": repr(exc)}
        return result

    return wrapper


def _patch_function(recorder: SpanRecorder, module_name: str, attr: str, name: str,
                    attrs: Optional[Callable] = None) -> None:
    """Wrap a module function everywhere ``repro`` bound it by name."""
    module = sys.modules[module_name]
    original = getattr(module, attr)
    wrapped = _wrap(recorder, name, original, attrs)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _patch_method(recorder: SpanRecorder, cls: type, attr: str, name: str,
                  attrs: Optional[Callable] = None) -> None:
    setattr(cls, attr, _wrap(recorder, name, getattr(cls, attr), attrs))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _nbytes(*arrays: Any) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _csr_bytes(X: Any) -> int:
    return _nbytes(X.data, X.indices, X.indptr)


# Computed bytes moved per kernel call, from the sizes of its operands:
# every index/value/label array it reads once, plus 8 bytes of weight
# traffic per nonzero (a gather; update kernels also write it back).
def _bytes_sample_block(result, _self, w, obj, X, y, rows, scales):
    return {"bytes": 28 * int(result) + 24 * int(rows.size)}


def _bytes_frozen_block(result, _self, w, obj, idx, val, lengths, y_rows, scales):
    return {"bytes": _nbytes(idx, val, lengths, y_rows, scales) + 16 * int(idx.size)}


def _bytes_segment(result, _self, idx, val, lengths, w):
    return {"bytes": _nbytes(idx, val, lengths) + 8 * int(idx.size) + 8 * int(lengths.size)}


def _bytes_evaluate(result, _self, obj, X, y, w):
    return {"bytes": _csr_bytes(X) + _nbytes(y) + 8 * int(X.data.size)}


def _trace_counts(result, *_args, **_kwargs):
    trace = result.trace
    return {"iterations": int(trace.total_iterations),
            "conflicts": int(trace.total_conflicts)}


def _cluster_counts(result, *_args, **_kwargs):
    skew = list(result.epoch_occupancy_skew)
    return {
        "epoch_s": float(sum(result.epoch_seconds)),
        "occupancy_skew": (sum(skew) / len(skew)) if skew else 0.0,
        "steals": int(sum(result.epoch_steals)),
        "respawns": int(result.info.get("respawns", 0)),
        "iterations": int(result.trace.total_iterations),
    }


def _sampler_digest(result, _self, probabilities, *args, **kwargs):
    import numpy as np

    p = np.ascontiguousarray(probabilities, dtype=np.float64)
    return {"digest": hashlib.blake2b(p.tobytes(), digest_size=12).hexdigest()}


def _dataset_nnz(result, *_args, **_kwargs):
    return {"nnz": int(result.X.data.size)}


def _artifact_bytes(result, *_args, **_kwargs):
    return {"bytes": int(Path(result).stat().st_size)}


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer (call once per process)."""
    import repro.cli.main  # noqa: F401
    import repro.cluster.driver as cluster_driver
    import repro.core.sampler as sampler
    import repro.experiments.runner as runner
    import repro.experiments.store as store
    import repro.kernels.base as kernels_base
    import repro.kernels.native.backend  # noqa: F401  (registers the class)
    import repro.kernels.reference  # noqa: F401
    import repro.kernels.vectorized  # noqa: F401
    import repro.metrics.convergence as convergence
    import repro.objectives.base as objectives_base
    import repro.serving.batcher as batcher
    import repro.serving.model as serving_model
    import repro.solvers.base as solvers_base
    import repro.solvers.registry  # noqa: F401  (imports every solver class)
    from repro.async_engine.batched import BatchedSimulator
    from repro.async_engine.cost_model import CostModel
    from repro.async_engine.simulator import AsyncSimulator
    import repro.core.balancing  # noqa: F401
    import repro.core.partition  # noqa: F401
    import repro.datasets.loader  # noqa: F401
    import repro.runtime.backends  # noqa: F401

    _patch_function(recorder, "repro.datasets.loader", "load_dataset",
                    "datasets.load", _dataset_nnz)
    _patch_function(recorder, "repro.core.balancing", "balance_dataset", "core.balance")
    _patch_function(recorder, "repro.core.partition", "partition_dataset", "core.partition")
    _patch_function(recorder, "repro.runtime.backends", "execute", "runtime.execute")
    _patch_function(recorder, "repro.cli.main", "cmd_report", "experiments.report")

    for cls in _subclasses(objectives_base.Objective):
        if "lipschitz_constants" in vars(cls):
            _patch_method(recorder, cls, "lipschitz_constants", "objectives.lipschitz")
    for cls in (sampler.AliasSampler, sampler.InverseCDFSampler):
        _patch_method(recorder, cls, "__init__", "core.sampler_build", _sampler_digest)
    _patch_method(recorder, BatchedSimulator, "run", "async_engine.batched_run", _trace_counts)
    _patch_method(recorder, AsyncSimulator, "run", "async_engine.per_sample_run", _trace_counts)
    _patch_method(recorder, CostModel, "trace_wall_clock", "async_engine.cost_model")
    _patch_method(recorder, cluster_driver.ClusterDriver, "run", "cluster.run", _cluster_counts)
    _patch_method(recorder, convergence.MetricsRecorder, "record", "metrics.record")
    for cls in _subclasses(solvers_base.BaseSolver):
        if "fit" in vars(cls):
            _patch_method(recorder, cls, "fit", "solvers.fit")
    _patch_method(recorder, store.ArtifactStore, "save", "experiments.store_save",
                  _artifact_bytes)
    _patch_method(recorder, store.ArtifactStore, "load_entry", "experiments.store_load")
    _patch_method(recorder, serving_model.ScoringModel, "from_artifact",
                  "serving.model_load")
    _patch_method(recorder, batcher.MicroBatcher, "submit", "serving.submit")
    _patch_score_batch(recorder, batcher.MicroBatcher)

    # Kernels: wrap the method each concrete backend resolves, once per class.
    kernel_methods = {
        "run_sample_block": _bytes_sample_block,
        "run_frozen_block": _bytes_frozen_block,
        "segment_margins": _bytes_segment,
        "evaluate": _bytes_evaluate,
    }
    targets = []
    for cls in _subclasses(kernels_base.KernelBackend):
        for attr, attrs in kernel_methods.items():
            fn = getattr(cls, attr, None)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                targets.append((cls, attr, fn, attrs))
    for cls, attr, fn, attrs in targets:
        setattr(cls, attr, _wrap(recorder, f"kernels.{attr}", fn, attrs))

    # Sweep pool tasks run in forked workers: adopt the recorder there and
    # write each task's spans when it ends.
    original_task = runner._pool_execute
    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])

    @functools.wraps(original_task)
    def pool_task(payload):
        recorder.adopt_process(f"{recorder.run_id}.task{payload[0]}")
        span = recorder.open("experiments.pool_task")
        try:
            return original_task(payload)
        finally:
            recorder.close(span)
            recorder.dump(trace_dir / f"spans-{os.getpid()}-{payload[0]}.json")

    runner._pool_execute = pool_task


def _patch_score_batch(recorder: SpanRecorder, cls: type) -> None:
    """Span per micro-batch, with its size and every request's queue wait."""
    original = cls._score_batch

    @functools.wraps(original)
    def score_batch(self, batch):
        if not recorder.active():
            return original(self, batch)
        span = recorder.open("serving.score_batch")
        waits = [span["start"] - request.pending.submitted_at for request in batch]
        try:
            return original(self, batch)
        finally:
            recorder.close(span)
            span["attrs"] = {"batch": len(batch), "waits": waits}

    cls._score_batch = score_batch


# --------------------------------------------------------------------- #
# Folding spans into per-layer metrics
# --------------------------------------------------------------------- #
def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: Dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + (span["end"] - span["start"])
    return {
        (span["pid"], span["id"]): max(
            0.0, (span["end"] - span["start"]) - child_time.get((span["pid"], span["id"]), 0.0)
        )
        for span in spans
    }


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (zero where a layer did no work)."""
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    selfs = self_times(spans)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        if layer in self_by_layer:
            self_by_layer[layer] += selfs[(span["pid"], span["id"])]

    builds = count("core.sampler_build")
    digests = {s["attrs"].get("digest") for s in by_name.get("core.sampler_build", ())}
    kernel_names = ("run_sample_block", "run_frozen_block", "segment_margins", "evaluate")
    kernel_calls = sum(count(f"kernels.{k}") for k in kernel_names)
    kernel_bytes = sum(attr_sum(f"kernels.{k}", "bytes") for k in kernel_names)
    cluster_run = total("cluster.run")
    cluster_epochs = attr_sum("cluster.run", "epoch_s")
    cluster_runs = count("cluster.run")
    fits = by_name.get("solvers.fit", ())
    submits = [s["end"] - s["start"] for s in by_name.get("serving.submit", ())]
    batches = by_name.get("serving.score_batch", ())
    waits = [w for s in batches for w in s["attrs"].get("waits", ())]

    metrics: Dict[str, float] = {
        "cli.import_s": total("cli.import"),
        "datasets.load_s": total("datasets.load"),
        "datasets.nnz": attr_sum("datasets.load", "nnz"),
        "objectives.lipschitz_s": total("objectives.lipschitz"),
        "core.balance_s": total("core.balance"),
        "core.partition_s": total("core.partition"),
        "core.sampler_builds": builds,
        "core.sampler_build_s": total("core.sampler_build"),
        "core.sampler_reuse": (len(digests) / builds) if builds else 0.0,
        "runtime.execute_s": total("runtime.execute"),
        "runtime.execute_calls": count("runtime.execute"),
        "async_engine.batched_run_s": total("async_engine.batched_run"),
        "async_engine.per_sample_run_s": total("async_engine.per_sample_run"),
        "async_engine.cost_model_s": total("async_engine.cost_model"),
        "async_engine.iterations": attr_sum("async_engine.batched_run", "iterations")
        + attr_sum("async_engine.per_sample_run", "iterations"),
        "async_engine.conflicts": attr_sum("async_engine.batched_run", "conflicts")
        + attr_sum("async_engine.per_sample_run", "conflicts"),
        "cluster.run_s": cluster_run,
        "cluster.epoch_s": cluster_epochs,
        "cluster.overhead_s": cluster_run - cluster_epochs,
        "cluster.occupancy_skew": (attr_sum("cluster.run", "occupancy_skew") / cluster_runs)
        if cluster_runs else 0.0,
        "cluster.steals": attr_sum("cluster.run", "steals"),
        "cluster.respawns": attr_sum("cluster.run", "respawns"),
        "kernels.run_sample_block_s": total("kernels.run_sample_block"),
        "kernels.run_frozen_block_s": total("kernels.run_frozen_block"),
        "kernels.segment_margins_s": total("kernels.segment_margins"),
        "kernels.evaluate_s": total("kernels.evaluate"),
        "kernels.calls": kernel_calls,
        "kernels.bytes_moved_computed": kernel_bytes,
        "metrics.record_s": total("metrics.record"),
        "metrics.record_calls": count("metrics.record"),
        "solvers.fit_s": sum(s["end"] - s["start"] for s in fits),
        "solvers.fit_self_s": sum(selfs[(s["pid"], s["id"])] for s in fits),
        "experiments.store_save_s": total("experiments.store_save"),
        "experiments.artifact_bytes": attr_sum("experiments.store_save", "bytes"),
        "experiments.store_load_s": total("experiments.store_load"),
        "experiments.report_s": total("experiments.report"),
        "serving.model_load_s": total("serving.model_load"),
        "serving.submit_us": percentile(submits, 50) * 1e6 if submits else 0.0,
        "serving.queue_wait_ms_p50": percentile(waits, 50) * 1e3 if waits else 0.0,
        "serving.queue_wait_ms_p99": percentile(waits, 99) * 1e3 if waits else 0.0,
        "serving.score_ms_per_batch": (total("serving.score_batch") / len(batches) * 1e3)
        if batches else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    return metrics


def load_spans(paths: Iterable[Path]) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in paths:
        spans.extend(json.loads(path.read_text()))
    return spans


#: Every metric :func:`layer_metrics` reports, in report order.
LAYER_METRIC_NAMES = tuple(layer_metrics([]))
