"""One measured process of the benchmark.

Usage (the benchmark starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py cli <repro arguments...>
    python3 perfbench/child.py serve-inproc <config.json>

``cli`` runs ``python -m repro <arguments>`` in this interpreter; the only
additions are three time marks -- first entry into ``run_single`` (the
first training step), first return of ``ExperimentRunner.plan`` (a
sweep's plan is ready) and the return of ``MicroBatcher.__init__`` (a
server is ready) -- taken on the system-wide monotonic clock so the parent
can subtract its own spawn time.  ``serve-inproc`` loads a stored model
the way ``repro serve`` does and drives ``repro.serving`` in process on
the open-loop schedule of :mod:`loadgen`.

The marks, and the spans when ``PERFBENCH_TRACE_DIR`` is set, are written
to the files named by the ``PERFBENCH_*`` environment variables when the
command returns.
"""

import time

STARTED = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _mark_first(marks: dict, key: str, fn, *, after: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if key not in marks and not after:
            marks[key] = time.monotonic()
        result = fn(*args, **kwargs)
        if key not in marks and after:
            marks[key] = time.monotonic()
        return result

    return wrapper


def install_marks(marks: dict) -> None:
    import repro.experiments.runner as runner
    from repro.serving.batcher import MicroBatcher

    runner.run_single = _mark_first(marks, "first_step", runner.run_single)
    runner.ExperimentRunner.plan = _mark_first(
        marks, "plan_ready", runner.ExperimentRunner.plan, after=True)
    MicroBatcher.__init__ = _mark_first(
        marks, "server_ready", MicroBatcher.__init__, after=True)


def peak_rss_kb() -> int:
    """Largest resident set of this process and of every child it reaped.

    This process's own figure is the high-water mark of its current
    address space (``VmHWM``); ``ru_maxrss`` would also count the parent's
    memory this process was forked from before it exec'd the interpreter.
    """
    import resource

    hwm = 0
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def serve_inprocess(config_path: str) -> int:
    """Load the stored model like ``repro serve`` and drive it on the schedule."""
    import numpy as np

    import loadgen
    from repro.experiments.store import ArtifactStore
    from repro.serving import SERVE_DEFAULTS, ArtifactWatcher, MicroBatcher, ModelRef

    config = json.loads(Path(config_path).read_text())
    ref = ModelRef()
    watcher = ArtifactWatcher(ArtifactStore(config["store"]), ref, key=config["key"],
                              poll_interval=SERVE_DEFAULTS["poll_interval"])
    watcher.load_initial()
    watcher.start()
    queries = np.load(config["queries"])
    indptr, indices, values = queries["indptr"], queries["indices"], queries["values"]
    rows = [(indices[indptr[i]:indptr[i + 1]], values[indptr[i]:indptr[i + 1]])
            for i in range(indptr.size - 1)]
    schedule = loadgen.Schedule(queries["due"], queries["phase"],
                                [tuple(p) for p in queries["phases"].tolist()])
    try:
        with MicroBatcher(ref, lanes=SERVE_DEFAULTS["lanes"],
                          max_batch=SERVE_DEFAULTS["max_batch"],
                          max_delay_us=SERVE_DEFAULTS["max_delay_us"],
                          cache_size=SERVE_DEFAULTS["cache_size"]) as batcher:
            raw = loadgen.drive_inprocess(batcher, schedule, rows)
            stats = batcher.stats()
    finally:
        watcher.stop()
    raw["margins"] = [r.get("margin") for r in raw.pop("responses")]
    raw["sent"] = raw["sent"].tolist()
    raw["received"] = raw["received"].tolist()
    raw["stats"] = stats
    Path(config["result"]).write_text(json.dumps(raw))
    return 0


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    marks = {"started": STARTED}
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")

    import_start = time.perf_counter()
    from repro.cli.main import main as repro_main

    import_end = time.perf_counter()
    marks["imported"] = time.monotonic()
    recorder = None
    if trace_dir:
        import spans

        recorder = spans.SpanRecorder(os.environ.get("PERFBENCH_RUN_ID", "0"))
        recorder.add("cli.import", import_start, import_end)
        spans.instrument(recorder)
    install_marks(marks)

    try:
        if mode == "cli":
            code = repro_main(args)
        elif mode == "serve-inproc":
            code = serve_inprocess(args[0])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        marks["returned"] = time.monotonic()
        marks["peak_rss_kb"] = peak_rss_kb()
        Path(os.environ["PERFBENCH_MARKS"]).write_text(json.dumps(marks))
        if recorder is not None:
            recorder.dump(Path(trace_dir) / f"spans-{os.getpid()}-main.json")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
