"""Real thread-based Hogwild engine.

This engine runs genuine lock-free updates from multiple Python threads
over one shared NumPy buffer, exactly as Hogwild prescribes (no locks, last
writer wins per coordinate).  Under CPython the GIL serialises the byte-code
of the workers, so this tier demonstrates *correctness* (the solvers
tolerate truly interleaved, unsynchronised updates) rather than speed; the
performance side of the paper is reproduced by the simulator + cost model.

The threads consume the same :class:`~repro.async_engine.worker.SimulatedWorker`
sample sequences as the simulated tiers (so importance re-weighting, step
clipping and the ``reshuffle`` / ``regenerate`` epoch policy are defined
once, on the worker), and every iteration goes through the scalar entry
point of a :class:`~repro.rules.base.UpdateRuleKernel`, so the threaded tier
executes the *same* coefficient/step math as the simulated and cluster
tiers.  Rule epoch hooks (SVRG's sync step, SAGA's table build) run on the
driver thread between epochs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.async_engine.events import EpochEvent, ExecutionTrace
from repro.async_engine.simulator import SimulationResult
from repro.async_engine.worker import SimulatedWorker
from repro.kernels.base import KernelBackend
from repro.kernels.registry import resolve_backend
from repro.rules.base import UpdateRuleKernel
from repro.runtime.trace_fold import fold_block
from repro.sparse.csr import CSRMatrix


@dataclass
class ThreadedRuleEngine:
    """One OS thread per worker, updating one shared weight buffer lock-free.

    Satisfies the :class:`~repro.rules.base.EngineFacade` protocol.  Thread
    scheduling is real, so the trace carries the operation counters
    (iterations, support traffic, dense traffic, sample draws) but no
    delay/conflict replay.  With a single worker the run is sequential and
    bit-identical to the ``per_sample`` simulator with zero delay.

    Parameters
    ----------
    X, y:
        The full design matrix and labels.
    workers:
        One :class:`SimulatedWorker` per thread (shard + sample sequence).
    update_rule:
        The rule every thread executes.
    kernel:
        Kernel backend handed to rule epoch hooks; instance, registry name
        or ``None`` for the configured default.
    """

    X: CSRMatrix
    y: np.ndarray
    workers: List[SimulatedWorker]
    update_rule: UpdateRuleKernel
    kernel: Union[KernelBackend, str, None] = None

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("at least one worker is required")
        if self.y.shape[0] != self.X.n_rows:
            raise ValueError("X and y row counts differ")
        self.kernel = resolve_backend(self.kernel)
        self.weights = np.zeros(self.X.n_cols, dtype=np.float64)

    @property
    def inner_iterations(self) -> int:
        """Inner iterations per epoch (all threads combined)."""
        return sum(w.iterations_per_epoch for w in self.workers)

    def apply_dense_update(self, delta: np.ndarray, *, worker_id: int = -1) -> None:
        """Apply ``w += delta`` on the driver thread (between epochs)."""
        self.weights += delta

    # ------------------------------------------------------------------ #
    def _worker_loop(
        self, rows: np.ndarray, step_weights: np.ndarray, barrier: threading.Barrier
    ) -> None:
        X, y, w, rule = self.X, self.y, self.weights, self.update_rule
        barrier.wait()
        for row, step_weight in zip(rows.tolist(), step_weights.tolist()):
            x_idx, x_val = X.row(row)
            # Lock-free reads and writes: fancy indexing copies the current
            # (possibly mid-update) coordinates, np.add.at is not atomic
            # across threads — precisely the Hogwild semantics we want.
            values, _dense = rule.compute_update(
                w[x_idx], x_idx, x_val, float(y[row]), step_weight, row=row
            )
            if rule.dense_delta is not None:
                w += rule.dense_delta
            np.add.at(w, x_idx, values)

    def run(
        self,
        epochs: int,
        *,
        initial_weights: Optional[np.ndarray] = None,
        reshuffle: bool = True,
        regenerate: bool = False,
    ) -> SimulationResult:
        """Run ``epochs`` threaded epochs (same arguments as the simulators)."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if initial_weights is not None:
            self.weights[:] = initial_weights
        rule = self.update_rule
        row_nnz = self.X.row_nnz()
        trace = ExecutionTrace()
        epoch_weights: List[np.ndarray] = []

        for epoch in range(epochs):
            event = EpochEvent(epoch=epoch)
            rule.epoch_begin(self, epoch, event)
            if epoch > 0:
                for worker in self.workers:
                    worker.start_epoch(reshuffle=reshuffle, regenerate=regenerate)
            # Each worker hands over its whole epoch sequence on the driver
            # thread; the threads only execute updates.
            draws = [w.next_samples(w.iterations_per_epoch) for w in self.workers]
            barrier = threading.Barrier(len(draws))
            threads = [
                threading.Thread(
                    target=self._worker_loop, args=(rows, step_weights, barrier), daemon=True
                )
                for rows, _local, step_weights in draws
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            fold_block(
                event,
                rule,
                iterations=sum(rows.size for rows, _, _ in draws),
                support_nnz=sum(int(row_nnz[rows].sum()) for rows, _, _ in draws),
                conflicts=0,
            )
            rule.epoch_end(self, epoch, event)
            trace.add_epoch(event)
            epoch_weights.append(self.weights.copy())

        return SimulationResult(
            weights=self.weights.copy(),
            trace=trace,
            epoch_weights=epoch_weights,
        )


__all__ = ["ThreadedRuleEngine"]
