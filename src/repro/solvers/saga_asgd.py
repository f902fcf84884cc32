"""Asynchronous SAGA — a paper-adjacent scenario unlocked by the runtime.

The paper lumps SAGA with SVRG as "SVRG-styled" variance reduction: both
pay a dense per-iteration term on sparse data (SAGA's running average
gradient ``ḡ`` plays µ's role), so both lose the absolute-time race to
IS-ASGD even while winning per epoch.  The original codebase only ran SAGA
serially; with the update math factored into the single
:class:`~repro.rules.saga.SAGARule` definition, the asynchronous variant
costs *one declaration* — this file — and immediately runs on all four
execution tiers (per-sample ground truth, batched macro-steps, real
threads, and the multi-process cluster, where the coefficient table and
``ḡ`` live in shared memory).

Asynchrony-specific semantics (lock-free ``ḡ`` updates, per-block state
freezing on the batched tiers) are documented on the rule.
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


class SAGAASGDSolver(BaseSolver):
    """Lock-free asynchronous SAGA with uniform sampling.

    Parameters mirror :class:`~repro.solvers.asgd.ASGDSolver`; the update
    rule is the registered ``saga`` definition (coefficient table + running
    average gradient shared across workers).
    """

    name = "saga_asgd"
    #: Registered update rule this solver declares.
    rule = "saga"

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

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run asynchronous SAGA on ``problem``."""
        rng = as_rng(self.seed)
        order = random_order(problem.n_samples, seed=rng)
        partition = partition_dataset(order, problem.lipschitz_constants(), self.num_workers,
                                      scheme="uniform")
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


__all__ = ["SAGAASGDSolver"]
