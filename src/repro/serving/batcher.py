"""Micro-batching request queue over the kernel registry's batch primitives.

Single-row queries are cheap to *answer* but expensive to answer *one at a
time*: every request pays a full Python/kernel-call round trip for one
sparse dot product.  The :class:`MicroBatcher` coalesces concurrently
submitted queries into one flat gathered-rows batch and scores the whole
batch with a single
:meth:`~repro.kernels.base.KernelBackend.segment_margins` call — the same
primitive the training tiers batch with — amortising the per-call overhead
over up to ``max_batch`` requests (``BENCH_serving.json`` gates the
resulting throughput at ≥ 5x the one-query-at-a-time loop).

``lanes`` scoring threads drain the queue concurrently.  The native kernel
backend releases the GIL inside the C segment reduction, so multiple lanes
genuinely overlap there; under the pure-Python backends extra lanes still
overlap the queueing/bookkeeping with the numpy reductions.

Swap-consistency contract: each lane pins *one* model reference per batch
(:meth:`~repro.serving.swap.ModelRef.get`) and scores every request of the
batch against it, so a concurrent hot swap never produces a mixed-weight
response; each response names the model version that produced it.  A query
validated against an older version is re-checked against the pinned model,
so a swap to a narrower feature space fails only that query; so does a
query whose margin overflows to a non-finite value.  The
optional LRU result cache is keyed by ``(model version, row hash)``, so a
swap implicitly invalidates every cached margin.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.model import ScoringModel, _normalise_query
from repro.serving.swap import ModelRef


class PendingResult:
    """A submitted query's future response (wait with :meth:`result`)."""

    __slots__ = ("_event", "_value", "_error", "submitted_at", "completed_at")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self.submitted_at = time.perf_counter()
        self.completed_at: Optional[float] = None

    def _resolve(self, value: Optional[Dict[str, Any]], error: Optional[BaseException]) -> None:
        self._value = value
        self._error = error
        self.completed_at = time.perf_counter()
        self._event.set()

    def done(self) -> bool:
        """Whether the response is available."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the response arrives and return it (re-raising errors)."""
        if not self._event.wait(timeout):
            raise TimeoutError("query was not answered within the timeout")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    @property
    def latency(self) -> Optional[float]:
        """Seconds from submit to completion (None while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class _LRUCache:
    """Tiny thread-safe LRU mapping for cached margins."""

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: "OrderedDict[Tuple[int, bytes], float]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[int, bytes]) -> Optional[float]:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value
            self.hits += 1
            return value

    def put(self, key: Tuple[int, bytes], value: float) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class _Request:
    __slots__ = ("idx", "val", "pending", "cache_key", "version")

    def __init__(
        self,
        idx: np.ndarray,
        val: np.ndarray,
        pending: PendingResult,
        cache_key: Optional[bytes],
        version: int,
    ) -> None:
        self.idx = idx
        self.val = val
        self.pending = pending
        self.cache_key = cache_key
        self.version = version  # model version the query was validated against


class MicroBatcher:
    """Coalesce single-row queries into batched kernel calls.

    Parameters
    ----------
    model:
        A :class:`~repro.serving.swap.ModelRef` (hot-swappable) or a bare
        :class:`~repro.serving.model.ScoringModel` (wrapped into a private
        ref).
    lanes:
        Number of scoring threads draining the queue.
    max_batch:
        Largest number of queries scored per kernel call.
    max_delay_us:
        How long a lane waits for more queries to coalesce after picking up
        the first one (microseconds; 0 scores whatever is queued
        immediately).
    cache_size:
        LRU result-cache capacity in entries (0 disables caching; keys are
        ``(model version, blake2b(row))`` so hot-swaps invalidate).
    include_proba:
        Attach ``"proba"`` to responses when the objective defines
        probabilities.
    """

    def __init__(
        self,
        model: Union[ModelRef, ScoringModel],
        *,
        lanes: int = 1,
        max_batch: int = 64,
        max_delay_us: float = 200.0,
        cache_size: int = 0,
        include_proba: bool = False,
    ) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.ref = model if isinstance(model, ModelRef) else ModelRef(model)
        self.lanes = int(lanes)
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_us) * 1e-6
        self.include_proba = bool(include_proba)
        self.cache = _LRUCache(cache_size) if cache_size > 0 else None

        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._answered = 0
        self._batches = 0
        self._largest_batch = 0
        self._threads: List[threading.Thread] = []
        for lane in range(self.lanes):
            thread = threading.Thread(
                target=self._lane_loop, name=f"repro-serving-lane-{lane}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(self, indices: Sequence[int], values: Sequence[float]) -> PendingResult:
        """Enqueue one sparse query row; returns its :class:`PendingResult`."""
        model = self.ref.get()  # validates against the *current* feature space
        idx, val = _normalise_query(indices, values, model.n_features)
        pending = PendingResult()
        cache_key: Optional[bytes] = None
        if self.cache is not None:
            cache_key = hashlib.blake2b(
                idx.tobytes() + val.tobytes(), digest_size=16
            ).digest()
        request = _Request(idx, val, pending, cache_key, model.version)
        with self._cond:
            if self._closing:
                raise RuntimeError("batcher is closed")
            self._queue.append(request)
            self._submitted += 1
            self._cond.notify()
        return pending

    def score(
        self, indices: Sequence[int], values: Sequence[float], timeout: Optional[float] = 30.0
    ) -> Dict[str, Any]:
        """Submit one query and block for its response."""
        return self.submit(indices, values).result(timeout)

    # ------------------------------------------------------------------ #
    # Lane side
    # ------------------------------------------------------------------ #
    def _take_batch(self) -> Optional[List[_Request]]:
        """Block for the next batch (None when closing and drained)."""
        with self._cond:
            while not self._queue:
                if self._closing:
                    return None
                self._cond.wait()
            batch = [self._queue.popleft()]
            while self._queue and len(batch) < self.max_batch:
                batch.append(self._queue.popleft())
            if len(batch) >= self.max_batch or self.max_delay <= 0.0 or self._closing:
                return batch
            # Coalescing window: wait (briefly) for more arrivals so bursty
            # single-row traffic still forms real batches.
            deadline = time.perf_counter() + self.max_delay
            while len(batch) < self.max_batch and not self._closing:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    break
                self._cond.wait(remaining)
                while self._queue and len(batch) < self.max_batch:
                    batch.append(self._queue.popleft())
            return batch

    def _lane_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                self._score_batch(batch)
            except BaseException as exc:  # never kill a lane: fail the batch
                for request in batch:
                    if not request.pending.done():
                        request.pending._resolve(None, exc)

    def _score_batch(self, batch: List[_Request]) -> None:
        # Pin exactly one model for the whole batch: the swap-atomicity
        # contract (no mixed-weight responses) lives on this line.
        model = self.ref.get()
        version = model.version

        fresh: List[_Request] = []
        for request in batch:
            if request.version != version and not self._still_valid(request, model):
                continue
            if request.cache_key is not None and self.cache is not None:
                hit = self.cache.get((version, request.cache_key))
                if hit is not None:
                    self._respond(request, model, hit, cached=True)
                    continue
            fresh.append(request)

        if fresh:
            idx = np.concatenate([r.idx for r in fresh])
            val = np.concatenate([r.val for r in fresh])
            lengths = np.fromiter(
                (r.idx.size for r in fresh), dtype=np.int64, count=len(fresh)
            )
            margins = model.decision_function_gathered(idx, val, lengths)
            for position, request in enumerate(fresh):
                margin = float(margins[position])
                if not math.isfinite(margin):
                    # Finite inputs can still overflow the dot product; that
                    # query alone gets an error instead of a non-JSON margin.
                    request.pending._resolve(
                        None, ValueError(f"query margin is not finite ({margin})")
                    )
                    continue
                if request.cache_key is not None and self.cache is not None:
                    self.cache.put((version, request.cache_key), margin)
                self._respond(request, model, margin, cached=False)

        with self._stats_lock:
            self._batches += 1
            self._largest_batch = max(self._largest_batch, len(batch))
            self._answered += len(batch)

    @staticmethod
    def _still_valid(request: _Request, model: ScoringModel) -> bool:
        """Re-validate a query submitted before a hot swap; fail it alone if stale.

        A swap to a narrower model can put a query's indices out of range
        for the model this batch pinned; that query gets its own
        ``ValueError`` while the rest of the batch is still scored.
        """
        try:
            _normalise_query(request.idx, request.val, model.n_features)
        except ValueError as exc:
            request.pending._resolve(
                None,
                ValueError(
                    f"query submitted against model version {request.version} is invalid "
                    f"for model version {model.version} swapped in before scoring: {exc}"
                ),
            )
            return False
        return True

    def _respond(
        self, request: _Request, model: ScoringModel, margin: float, *, cached: bool
    ) -> None:
        margins = np.array([margin], dtype=np.float64)
        response: Dict[str, Any] = {
            "margin": margin,
            "prediction": float(model.objective.predict_from_margins(margins)[0]),
            "model_version": model.version,
            "cached": cached,
        }
        if self.include_proba and model.supports_proba:
            response["proba"] = float(model.objective.proba_from_margins(margins)[0])
        request.pending._resolve(response, None)

    # ------------------------------------------------------------------ #
    # Lifecycle + stats
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting queries, drain the queue, join every lane."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Counters since construction (submitted/answered/batches/cache)."""
        with self._stats_lock:
            out: Dict[str, Any] = {
                "lanes": self.lanes,
                "max_batch": self.max_batch,
                "submitted": self._submitted,
                "answered": self._answered,
                "batches": self._batches,
                "largest_batch": self._largest_batch,
                "mean_batch": (self._answered / self._batches) if self._batches else 0.0,
                "model_swaps": self.ref.swaps,
            }
        if self.cache is not None:
            out["cache"] = {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        return out


__all__ = ["MicroBatcher", "PendingResult"]
