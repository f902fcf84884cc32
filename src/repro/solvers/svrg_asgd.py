"""Asynchronous SVRG (Algorithm 1 of the paper, the "SVRG-ASGD" baseline).

Workers run lock-free over the shared model; once per epoch a snapshot
``s = w`` and its full gradient ``µ = ∇F(s)`` are computed, and every inner
iteration applies the variance-reduced gradient
``v_t = ∇f_i(ŵ_t) - ∇f_i(s) + µ``.  The implementation follows the
literature version faithfully — the dense ``µ`` is added at *every*
iteration (no skip-µ approximation) — because the paper explicitly
evaluates that version; the approximation is available as an ablation flag.

The per-iteration dense cost is what makes this solver lose the absolute
convergence race on sparse data even though it wins per epoch.

The whole algorithm — the inner update *and* the per-epoch sync step — is
the registered ``svrg`` / ``svrg_skip_dense`` rule
(:mod:`repro.rules.svrg`); this solver only declares the sampler
configuration and hands execution to the runtime, so all four backends run
the identical definition.
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


class SVRGASGDSolver(BaseSolver):
    """Lock-free asynchronous SVRG (generic SVRG-styled ASGD of Algorithm 1).

    Parameters mirror :class:`~repro.solvers.asgd.ASGDSolver`;
    ``skip_dense_term`` selects the paper's skip-µ ablation (registered as
    the ``svrg_skip_dense`` rule).
    """

    name = "svrg_asgd"

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
        skip_dense_term: bool = False,
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
        self.skip_dense_term = bool(skip_dense_term)
        self.async_mode = resolve_async_mode(async_mode)
        self.batch_size = batch_size
        self.shard_scheme = shard_scheme
        self.num_shards = num_shards

    @property
    def parallel_workers(self) -> int:
        return self.num_workers

    @property
    def rule(self) -> str:
        """Registered update rule this solver declares."""
        return "svrg_skip_dense" if self.skip_dense_term else "svrg"

    def fit(self, problem: Problem, *, initial_weights: Optional[np.ndarray] = None) -> TrainResult:
        """Run asynchronous SVRG on ``problem``."""
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
            extra_info={
                "num_workers": self.num_workers,
                "skip_dense_term": self.skip_dense_term,
            },
            initial_weights=initial_weights,
        )


__all__ = ["SVRGASGDSolver"]
