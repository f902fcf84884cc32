"""Asynchronous SGD (Hogwild-style), the paper's acceleration target.

Since the runtime refactor this solver is a thin declaration: it owns the
*what* — uniform sampling over per-worker shards, the registered ``sgd``
update rule, the staleness default — and hands the *how* to the execution
runtime (:mod:`repro.runtime`), which runs the request on whichever of the
four interchangeable backends ``async_mode`` selects: ``per_sample``
(ground-truth simulator), ``batched`` (macro-step fast path), ``threads``
(real lock-free threads) or ``process`` (multi-process sharded parameter
server with measured wall-clock).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.async_engine.staleness import StalenessModel, UniformDelay
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.runtime import resolve_async_mode
from repro.solvers.base import BaseSolver, Problem
from repro.solvers.results import TrainResult
from repro.utils.rng import RandomState, as_rng


class ASGDSolver(BaseSolver):
    """Hogwild-style asynchronous SGD with uniform sampling.

    Parameters
    ----------
    num_workers:
        Degree of concurrency (the paper's thread count).
    staleness:
        Delay model for the simulated tiers; defaults to
        ``UniformDelay(num_workers - 1)``, matching the assumption that the
        maximum delay is proportional to concurrency.
    async_mode:
        Execution backend, resolved through the runtime registry:
        ``"per_sample"``, ``"batched"``, ``"threads"`` or ``"process"``;
        ``None`` resolves via :func:`repro.runtime.resolve_async_mode`
        (``REPRO_ASYNC_MODE``).  See ``docs/runtime.md`` for the
        capability matrix.
    batch_size:
        Macro-step length for the batched/process backends (``"auto"``
        scales with the backend's own heuristic).
    shard_scheme / num_shards:
        Parameter-shard layout for ``async_mode="process"`` (``"range"``
        or ``"coloring"``; shards default to the worker count).
    """

    name = "asgd"
    #: Registered update rule this solver declares.
    rule = "sgd"

    def __init__(
        self,
        *,
        step_size: float = 0.1,
        epochs: int = 10,
        num_workers: int = 4,
        seed: RandomState = 0,
        cost_model=None,
        record_every: int = 1,
        staleness: Optional[StalenessModel] = None,
        kernel=None,
        async_mode: Optional[str] = None,
        batch_size="auto",
        shard_scheme: str = "range",
        num_shards: Optional[int] = None,
    ) -> None:
        super().__init__(step_size=step_size, epochs=epochs, seed=seed,
                         cost_model=cost_model, record_every=record_every, kernel=kernel)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.staleness = staleness
        self.async_mode = resolve_async_mode(async_mode)
        self.batch_size = batch_size
        self.shard_scheme = shard_scheme
        self.num_shards = num_shards

    @property
    def parallel_workers(self) -> int:
        return self.num_workers

    # ------------------------------------------------------------------ #
    def _build_partition(self, problem: Problem, rng: np.random.Generator):
        order = random_order(problem.n_samples, seed=rng)
        # Uniform scheme: plain ASGD samples uniformly from its local shard.
        return partition_dataset(order, problem.lipschitz_constants(), self.num_workers,
                                 scheme="uniform")

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run asynchronous SGD on ``problem``."""
        rng = as_rng(self.seed)
        partition = self._build_partition(problem, rng)
        return self._execute_async(
            problem,
            partition,
            rng,
            rule=self.rule,
            staleness=self.staleness or UniformDelay(max(self.num_workers - 1, 0)),
            include_sampling=False,
            extra_info={"num_workers": self.num_workers},
            initial_weights=initial_weights,
        )


__all__ = ["ASGDSolver"]
