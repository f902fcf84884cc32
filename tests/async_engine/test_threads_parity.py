"""Parity suite for the registered ``async_mode="threads"`` backend.

The real lock-free threading backend is a registered async mode, selectable
through :mod:`repro.runtime` (and hence ``REPRO_ASYNC_MODE``) for all the
asynchronous solvers.  Thread
scheduling makes the runs non-deterministic, so the suite pins *tolerance*
parity against the per-sample simulated ground truth on a fixed seed: the
threaded run must genuinely optimise and land within a loss band of the
simulated one.
"""

import numpy as np
import pytest

from repro.core.is_asgd import ISASGDSolver
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.runtime import available_backend_names, set_default_async_mode
from repro.solvers.asgd import ASGDSolver
from repro.solvers.base import Problem
from repro.solvers.svrg_asgd import SVRGASGDSolver


@pytest.fixture(scope="module")
def parity_problem() -> Problem:
    spec = SyntheticSpec(
        n_samples=600, n_features=150, nnz_per_sample=8.0, label_noise=0.02, name="threads_parity"
    )
    X, y, _ = make_sparse_classification(spec, seed=3)
    objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=spec.name)


SOLVER_FACTORIES = {
    "asgd": lambda mode: ASGDSolver(
        step_size=0.2, epochs=4, num_workers=3, seed=11, async_mode=mode
    ),
    "is_asgd": lambda mode: ISASGDSolver(
        step_size=0.2, epochs=4, num_workers=3, seed=11, async_mode=mode
    ),
    "svrg_asgd": lambda mode: SVRGASGDSolver(
        step_size=0.2, epochs=4, num_workers=3, seed=11, async_mode=mode
    ),
}


class TestThreadsMode:
    def test_threads_is_registered(self):
        assert "threads" in available_backend_names()

    @pytest.mark.parametrize("solver_name", sorted(SOLVER_FACTORIES))
    def test_threads_converges_to_per_sample_tolerance(self, parity_problem, solver_name):
        factory = SOLVER_FACTORIES[solver_name]
        reference = factory("per_sample").fit(parity_problem)
        threaded = factory("threads").fit(parity_problem)

        obj = parity_problem.objective
        X, y = parity_problem.X, parity_problem.y
        loss_zero = obj.full_loss(np.zeros(parity_problem.n_features), X, y)
        loss_ref = obj.full_loss(reference.weights, X, y)
        loss_thr = obj.full_loss(threaded.weights, X, y)

        assert threaded.info["async_mode"] == "threads"
        # The threaded run genuinely optimises ...
        assert loss_thr < loss_zero
        # ... and lands within tolerance of the simulated ground truth:
        # the gap to the reference loss is small relative to the progress
        # the reference made from the zero initialisation.
        progress = loss_zero - loss_ref
        assert progress > 0
        assert abs(loss_thr - loss_ref) <= 0.25 * progress

    def test_threads_selectable_via_registry_default(self, parity_problem):
        try:
            set_default_async_mode("threads")
            solver = ASGDSolver(step_size=0.2, epochs=2, num_workers=2, seed=0)
            assert solver.async_mode == "threads"
            result = solver.fit(parity_problem)
            assert result.info["backend"] == "threads"
        finally:
            set_default_async_mode(None)


class TestThreadsWorkerCapping:
    def test_svrg_threads_more_workers_than_samples_terminates(self):
        """Regression: the SVRG threads barrier was sized from the requested
        worker count while partition_dataset caps shards at n_samples,
        deadlocking every thread. Must terminate and optimise."""
        spec = SyntheticSpec(n_samples=5, n_features=12, nnz_per_sample=3.0, name="tiny")
        X, y, _ = make_sparse_classification(spec, seed=0)
        problem = Problem(X=X, y=y, objective=LogisticObjective(), name="tiny")
        solver = SVRGASGDSolver(step_size=0.05, epochs=2, num_workers=8, seed=0,
                                async_mode="threads")
        result = solver.fit(problem)
        assert result.info["async_mode"] == "threads"
        assert len(result.trace.epochs) == 2
