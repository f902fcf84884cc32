"""Open-loop query generator for ``repro serve`` and its in-process twin.

Requests are due on a fixed schedule of rate phases, whatever the server
does.  Each request's latency runs from its *due* time -- not from when
the writer got round to sending it -- to when its response was read, so a
stall is charged to every request queued behind it.  The generator
reports how late its writer ran and how many responses were outstanding
at the start and end of each phase (a request is outstanding from its due
time, so requests a blocked writer could not send yet count too).

A serving session has three phases after a short warm-up: the light and
heavy loads the latency metrics name, then a saturation phase offered far
more than any server here can take.  The rate the server answers at
during that phase is the rate it sustains.  Every request up to the
saturation phase is sent, however late; the writer stops at the end of
the schedule's time only inside the saturation phase, whatever is still
due there.

Two drivers share the schedule and the analysis:

* :func:`drive_cli` -- one generator process (the caller) with one writer
  thread and one reader thread, talking JSONL to a ``repro serve``
  subprocess over its stdin/stdout pipes;
* :func:`drive_inprocess` -- the same schedule submitted straight to a
  ``MicroBatcher`` in the calling process (the traced serving run).
"""

from __future__ import annotations

import gc
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import percentile

LIGHT_QPS = 1000
HEAVY_QPS = 4000
#: Offered rate of the saturation phase, far above what the server answers.
SATURATION_QPS = 50000
#: A short phase ahead of the measured ones, excluded from every figure.
WARMUP = (500, 0.3)
#: Seconds past the schedule's end after which the writer gives up on
#: requests it could not send yet; they count as failed.
GRACE_S = 10.0
#: A light or heavy phase whose outstanding requests grow by more than
#: this many seconds of its traffic was not sustained.
BACKLOG_SLACK_S = 0.1
#: Requests written to the pipe per system call at most.
CHUNK = 512


@dataclass
class Schedule:
    """Due times (seconds from the start) and the phase of every request."""

    due: np.ndarray
    phase: np.ndarray
    phases: List[Tuple[int, float, float, bool]]  # (rate, start, end, counted)

    @classmethod
    def of(cls, plan: Sequence[Tuple[int, float]]) -> "Schedule":
        """A warm-up, then one phase per ``(rate, seconds)`` of ``plan``."""
        due: List[np.ndarray] = []
        phase_of: List[np.ndarray] = []
        phases = []
        start = 0.0
        for k, (rate, seconds) in enumerate([WARMUP, *plan]):
            n = max(1, int(round(rate * seconds)))
            due.append(start + np.arange(n, dtype=np.float64) / rate)
            phase_of.append(np.full(n, k, dtype=np.int64))
            phases.append((rate, start, start + n / rate, k > 0))
            start += n / rate
        return cls(np.concatenate(due), np.concatenate(phase_of), phases)

    @classmethod
    def session(cls, seconds: float, saturate: bool = True) -> "Schedule":
        """A session of ``seconds`` after the warm-up.

        The light and heavy phases get a fifth each and the saturation
        phase the rest; without it, the light and heavy phases share all.
        """
        if not saturate:
            return cls.of([(LIGHT_QPS, seconds / 2), (HEAVY_QPS, seconds / 2)])
        return cls.of([(LIGHT_QPS, seconds / 5), (HEAVY_QPS, seconds / 5),
                       (SATURATION_QPS, seconds * 3 / 5)])

    @property
    def end(self) -> float:
        return self.phases[-1][2]

    @property
    def required(self) -> int:
        """Requests that must all be sent: every one before the saturation phase."""
        for k, phase in enumerate(self.phases):
            if phase[0] == SATURATION_QPS:
                return int(np.searchsorted(self.phase, k))
        return len(self)

    def __len__(self) -> int:
        return int(self.due.size)


def encode_rows(rows: Sequence[Tuple[np.ndarray, np.ndarray]]) -> List[bytes]:
    """The JSON body of each distinct query row, after its ``id`` field."""
    return [
        (json.dumps({"indices": idx.tolist(), "values": val.tolist()})[1:] + "\n").encode()
        for idx, val in rows
    ]


def query_line(request: int, body: bytes) -> bytes:
    """One JSONL request: ``{"id": <request>, "indices": [...], "values": [...]}``."""
    return b'{"id": %d, ' % request + body


# --------------------------------------------------------------------- #
# CLI driver
# --------------------------------------------------------------------- #
def drive_cli(proc, schedule: Schedule, bodies: List[bytes],
              ids: np.ndarray) -> Dict[str, Any]:
    """Send request ``k`` (row ``ids[k]``) to ``proc`` when it is due.

    The schedule starts once the server has loaded its model (it says so
    on stderr).  Past the schedule's end the writer stops once every
    request before the saturation phase is sent, or :data:`GRACE_S`
    later in any case, or as soon as the server stops reading.  The
    generator's own garbage collector is paused meanwhile so its pauses
    are not charged to the server.
    """
    n = len(schedule)
    sent = np.full(n, np.nan)
    received_at: List[float] = []
    responses: List[bytes] = []
    loaded = threading.Event()
    fd = proc.stdin.fileno()

    def reader() -> None:
        for line in proc.stdout:
            received_at.append(time.perf_counter())
            responses.append(line)

    def stderr_reader() -> None:
        for line in proc.stderr:
            if line.startswith(b'{"model"'):
                loaded.set()
        loaded.set()

    threads = [threading.Thread(target=reader, name="perfbench-reader", daemon=True),
               threading.Thread(target=stderr_reader, name="perfbench-stderr", daemon=True)]
    for thread in threads:
        thread.start()
    loaded.wait(timeout=60.0)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter() + 0.02
    due_abs = schedule.due + t0
    end_abs = schedule.end + t0
    required = schedule.required
    i = 0
    try:
        while i < n:
            now = time.perf_counter()
            if now > end_abs and (i >= required or now > end_abs + GRACE_S):
                break
            if now < due_abs[i]:
                time.sleep(min(due_abs[i] - now, 0.002))
                continue
            j = min(int(np.searchsorted(due_abs, now, side="right")), i + CHUNK)
            payload = b"".join(query_line(k, bodies[ids[k]]) for k in range(i, j))
            view = memoryview(payload)
            while view:
                view = view[os.write(fd, view):]
            sent[i:j] = time.perf_counter()
            i = j
    except BrokenPipeError:
        pass  # the server is gone; what it did not answer counts as failed
    finally:
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        if gc_was_enabled:
            gc.enable()
    for thread in threads:
        thread.join(timeout=120.0)
    return {
        "sent": sent[:i] - t0,
        "received": np.asarray(received_at[: len(responses)]) - t0,
        "responses": [json.loads(r) for r in responses],
    }


# --------------------------------------------------------------------- #
# In-process driver
# --------------------------------------------------------------------- #
def drive_inprocess(batcher, schedule: Schedule,
                    rows: Sequence[Tuple[np.ndarray, np.ndarray]]) -> Dict[str, Any]:
    """The same schedule submitted straight to ``batcher`` from one writer thread."""
    n = len(schedule)
    pending: List[Any] = []
    sent = np.full(n, np.nan)
    t0 = time.perf_counter() + 0.05
    due_abs = schedule.due + t0
    i = 0
    while i < n:
        now = time.perf_counter()
        if now < due_abs[i]:
            time.sleep(min(due_abs[i] - now, 0.002))
            continue
        j = int(np.searchsorted(due_abs, now, side="right"))
        for k in range(i, j):
            idx, val = rows[k]
            pending.append(batcher.submit(idx, val))
            sent[k] = time.perf_counter()
        i = j
    responses = []
    for p in pending:
        try:
            responses.append(p.result(timeout=60.0))
        except Exception as exc:  # a failed query is counted, not fatal
            responses.append({"error": str(exc)})
    return {
        "sent": sent - t0,
        "received": np.array([p.completed_at for p in pending], dtype=np.float64) - t0,
        "responses": responses,
    }


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #
def analyse(schedule: Schedule, raw: Dict[str, Any],
            expected: Optional[np.ndarray] = None, tol: float = 1e-9) -> Dict[str, Any]:
    """Per-phase latency, backlog and answer-rate figures plus the response checks.

    ``expected`` holds the reference margin of every scheduled request.
    Every request before the saturation phase counts as attempted.  One
    that was never sent, never answered, answered with an error, out of
    order or off by more than ``tol`` counts as failed and carries an
    infinite latency.  Only in the saturation phase, which offers more
    than the server can take by design, do requests the writer had not
    sent by the schedule's end count as neither attempted nor failed.
    A light or heavy phase whose outstanding requests grew by more than
    :data:`BACKLOG_SLACK_S` seconds of its traffic is flagged
    ``backlog_grew``.
    """
    sent_n = raw["sent"].size
    attempted = max(sent_n, schedule.required)
    sent = np.full(attempted, math.inf)
    sent[:sent_n] = raw["sent"]
    responses = raw["responses"]
    received = raw["received"]
    n_resp = min(len(responses), received.size)
    ok = np.zeros(attempted, dtype=bool)
    latency = np.full(attempted, math.inf)
    for i in range(min(n_resp, sent_n)):
        response = responses[i]
        if "error" in response or response.get("id", i) != i:
            continue
        if expected is not None and not abs(response["margin"] - expected[i]) <= tol:
            continue
        ok[i] = True
        latency[i] = received[i] - schedule.due[i]
    received_sorted = np.sort(received[:n_resp])

    def outstanding(t: float) -> int:
        return (int(np.searchsorted(schedule.due, t, side="right"))
                - int(np.searchsorted(received_sorted, t, side="right")))

    phases = []
    for k, (rate, start, end, counted) in enumerate(schedule.phases):
        members = np.nonzero(schedule.phase[:attempted] == k)[0]
        if not counted or members.size == 0:
            continue
        lat_ms = latency[members] * 1e3
        late_ms = (sent[members] - schedule.due[members]) * 1e3
        answered = int(np.searchsorted(received_sorted, end, side="right")
                       - np.searchsorted(received_sorted, start, side="right"))
        backlog_start, backlog_end = outstanding(start), outstanding(end)
        phases.append({
            "rate": rate,
            "requests": int(members.size),
            "failed": int(members.size - np.count_nonzero(ok[members])),
            "p50_ms": percentile(lat_ms, 50),
            "p99_ms": percentile(lat_ms, 99),
            "latencies_ms": lat_ms,
            "generator_late_ms_p99": percentile(late_ms, 99),
            "backlog_start": backlog_start,
            "backlog_end": backlog_end,
            "backlog_grew": bool(rate != SATURATION_QPS
                                 and backlog_end - backlog_start > rate * BACKLOG_SLACK_S),
            "answered_qps": answered / (end - start),
        })
    return {
        "phases": phases,
        "attempted": attempted,
        "failed": int(attempted - np.count_nonzero(ok)),
    }


def sustained_qps(phases: List[Dict[str, Any]]) -> float:
    """The rate the server answered at while offered :data:`SATURATION_QPS`."""
    phase = phase_at(phases, SATURATION_QPS)
    return phase["answered_qps"] if phase else math.nan


def phase_at(phases: List[Dict[str, Any]], rate: int) -> Optional[Dict[str, Any]]:
    for phase in phases:
        if phase["rate"] == rate:
            return phase
    return None
