"""The repository benchmark: end-to-end and per-layer figures of IS-ASGD.

Run from the root of a checkout::

    python3 perfbench/run.py --workload run_url_batched --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every figure with its unit, median, tail percentile and sample
count, the provenance of the run and every output check.  The exit code
is 0 only when every check passed.  ``--tiny`` runs a seconds-long pass
of a workload on the smoke datasets (used by the benchmark's own tests).

The workloads, the metrics and which layer metric should move on which
workload are described in ``perfbench/README.md``; ``BENCHMARK.json`` at
the root lists the names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "samples/s",
    "final_rmse": "rmse",
    "peak_rss_mb": "MB",
    "serve_p50_ms_light": "ms",
    "serve_p50_ms_heavy": "ms",
}


def per_layer_units() -> dict:
    """Per-layer metrics: name -> unit (every workload reports all of them)."""
    import spans

    names = list(spans.LAYER_METRIC_NAMES) + [
        "serving.batch_size_mean", "serving.cache_hit_share", "serving.cli_overhead_ms",
        "serving.sustained_qps",
        "bench.trace_overhead_share", "bench.generator_late_ms_p99",
    ]
    return {name: unit_of(name) for name in names}


def unit_of(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or "bytes_" in name:
        return "bytes"
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith(("_share", "_reuse", "_skew")):
        return "ratio"
    return "count"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long pass on the smoke datasets")
    return parser.parse_args(argv)


def _number(value: float):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2
    # The parent computes reference answers with the library: keep its
    # defaults the program's own, whatever this shell exports.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = harness.child_env(work)
        # Build the native kernel extension before anything is timed, with
        # its staging directory inside the checkout too.
        tempfile.tempdir = env["TMPDIR"]
        from repro.kernels.native import builder

        try:
            builder.load_native_lib()
        except Exception as exc:  # the program falls back; the figures say which
            print(f"note: native kernels unavailable ({exc})", file=sys.stderr)
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                                tiny=args.tiny, work=work, env=env)
        started = time.monotonic()
        outcome = workloads.WORKLOADS[args.workload](ctx)
        elapsed = time.monotonic() - started
        info = harness.provenance(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = outcome.failed == 0 and all(ok for _, ok, _ in outcome.checks)
    if args.trace:
        units = per_layer_units()
        reported = {name: (outcome.layers.get(name, 0.0), unit) for name, unit in units.items()}
    else:
        reported = {}
        for name, unit in END_TO_END.items():
            metric = outcome.metrics.get(name)
            reported[name] = (metric.value if metric else math.nan, unit)
            if metric is None or not math.isfinite(metric.value):
                correct = False

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  measured in {elapsed:.1f} s")
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        for name, (value, unit) in reported.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    else:
        for name in END_TO_END:
            metric = outcome.metrics.get(name)
            print(metric.row() if metric else f"  {name:<34} missing")
    seen = set()
    for name, ok, detail in outcome.checks:
        if (name, ok) in seen and ok:
            continue
        seen.add((name, ok))
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if not ok else ""))
    print(f"  operations attempted {outcome.attempted} failed {outcome.failed}")

    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": info, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in reported.items()},
        "checks": outcome.checks, "detail": outcome.detail,
    }, indent=1, default=str))

    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
