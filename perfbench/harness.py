"""Process launching, the pinned child environment, provenance and statistics."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Percentiles considered for a timing's tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def child_env(work: Path, **extra: str) -> Dict[str, str]:
    """The environment of every measured process, built rather than inherited.

    ``PYTHONUNBUFFERED=1`` makes ``repro serve`` write each response line
    to its stdout pipe as it is produced, which is how an interactive
    JSONL client sees it; without it the responses would sit in an 8 KiB
    block buffer.  No ``REPRO_*`` variable is passed, so every default
    (kernel backend, async mode, logging) is the program's own.  BLAS
    thread pools are pinned to one thread so the two-worker cluster runs
    do not oversubscribe a small machine.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(work),
        "TMPDIR": str(tmp),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    env.update(extra)
    return env


def provenance(env: Dict[str, str]) -> Dict[str, Any]:
    """Where the numbers came from: code, machine, interpreter, environment."""
    from repro.kernels import native_status

    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            revision = ref_path.read_text().strip() if ref_path.exists() else ref
        else:
            revision = ref
    return {
        "git_sha": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "native_status": native_status(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "child_env": {k: v for k, v in env.items() if k not in {"PATH", "HOME", "TMPDIR"}},
    }


@dataclass
class ChildResult:
    """Wall time, peak memory and marks of one measured process."""

    code: int
    spawned: float
    exited: float
    peak_rss_mb: float
    marks: Dict[str, float]
    stdout: str = ""
    stderr: str = ""

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned

    def since_spawn(self, mark: str) -> Optional[float]:
        value = self.marks.get(mark)
        return None if value is None else value - self.spawned


def spawn(args: Sequence[str], env: Dict[str, str], marks_path: Path,
          cpus: Optional[Set[int]] = None, **popen: Any) -> subprocess.Popen:
    """Start ``child.py`` with ``args``; ``cpus`` pins it to those processors."""
    env = dict(env, PERFBENCH_MARKS=str(marks_path))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            env=env, cwd=str(ROOT), **popen)
    if cpus:
        os.sched_setaffinity(proc.pid, cpus)
    return proc


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(generator, server)`` processors for a serving session.

    With two or more processors the load generator and the server each
    get their own, as if the client ran on another machine: neither then
    steals the other's processor, which on a small shared machine is
    what makes tail latencies swing.  With one processor nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[-1]}


@contextmanager
def pinned(cpus: Optional[Set[int]]) -> Iterator[None]:
    """Run the calling process on ``cpus`` for the duration of the block."""
    if not cpus:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def reap(proc: subprocess.Popen, spawned: float, marks_path: Path,
         timeout: float) -> ChildResult:
    """Wait for ``proc`` (killing it after ``timeout``) and collect its figures."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    exited = time.monotonic()
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    peak = marks.get("peak_rss_kb")
    return ChildResult(proc.returncode, spawned, exited,
                       peak / 1024.0 if peak else float("nan"), marks)


def run_child(args: Sequence[str], env: Dict[str, str], marks_path: Path,
              timeout: float = 170.0, cpus: Optional[Set[int]] = None) -> ChildResult:
    """Run one child to completion; its stdout/stderr go to files beside the marks."""
    marks_path.unlink(missing_ok=True)
    out_path = marks_path.with_suffix(".out")
    err_path = marks_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = spawn(args, env, marks_path, cpus, stdin=subprocess.DEVNULL, stdout=out,
                     stderr=err)
        result = reap(proc, spawned, marks_path, timeout)
    result.stdout = out_path.read_text(errors="replace")
    result.stderr = err_path.read_text(errors="replace")
    return result


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def tail(values: Sequence[float]) -> Optional[tuple]:
    """``(percentile, value)``: the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p, percentile(values, p)
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolated linearly; infinite values are allowed."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo or ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Metric:
    """One reported figure with the samples it summarises."""

    name: str
    unit: str
    value: float
    samples: List[float] = field(default_factory=list)

    def row(self) -> str:
        t = tail(self.samples)
        tail_text = f"p{t[0]:g}={t[1]:.6g}" if t else "tail=n/a(<20 samples)"
        med = statistics.median(self.samples) if self.samples else self.value
        return (f"  {self.name:<34} {self.value:>14.6g} {self.unit:<10} "
                f"median={med:.6g} {tail_text} n={len(self.samples)}")


def median_metric(name: str, unit: str, samples: Sequence[float]) -> Metric:
    return Metric(name, unit, float(statistics.median(samples)), list(samples))
