"""Self-check of the benchmark: every workload once, against ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py                 # full size, seed 2, untraced
    python3 perfbench/selfcheck.py --trace         # ... and the traced run too
    python3 perfbench/selfcheck.py --tiny --trace  # seconds-long smoke pass

Seed 2 is not one the benchmark was tuned on, so a claim made on other
seeds can be confirmed here.  For each workload the benchmark must exit 0
and its last output line must be the result object with exactly the
contract's keys, a correct result with no failed operation, and exactly
the metric names and units ``BENCHMARK.json`` lists (end-to-end when
untraced, per-layer when traced), each a finite number.  Exit code 0 only
when every run passes.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Measuring time of a ``--tiny`` run.
TINY_SECONDS = 1


def check_run(spec: dict, workload: str, seed: int, trace: bool, tiny: bool) -> list:
    """Problems with one benchmark run (an empty list when it passes)."""
    seconds = TINY_SECONDS if tiny else spec["run_seconds"]
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {(proc.stdout + proc.stderr)[-1500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metric names/units differ: missing {missing} extra {extra} "
                        f"units {units}")
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        elif not trace and value == 0:
            problems.append(f"{name} is 0")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--trace", action="store_true", help="also check the traced runs")
    parser.add_argument("--tiny", action="store_true", help="smoke-sized pass")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ((False, True) if args.trace else (False,)):
            problems = check_run(spec, workload, args.seed, trace, args.tiny)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:<22} trace={int(trace)} seed={args.seed}: {status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
