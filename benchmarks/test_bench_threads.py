"""Benchmark: the real-thread tier (``async_mode="threads"``) vs the simulator.

This is the substitution-validation ablation called out in DESIGN.md §5: the
threads tier runs genuine lock-free updates (correctness under races),
while the per-sample simulator is the engine used for the figures.  Under
the GIL the threads tier gains no wall-clock speedup — that is expected and
is exactly why the cost model exists — but the *models it produces* must be
of similar quality to the simulator's.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.core.config import ISASGDConfig
from repro.core.is_asgd import ISASGDSolver
from repro.datasets.loader import load_dataset
from repro.experiments.report import format_table
from repro.objectives.logistic import LogisticObjective
from repro.solvers.base import Problem


@pytest.fixture(scope="module")
def problem():
    ds = load_dataset("news20_smoke", seed=0)
    return Problem(X=ds.X, y=ds.y, objective=LogisticObjective.l1_regularized(1e-4),
                   name="news20_smoke")


@pytest.mark.benchmark(group="threads")
@pytest.mark.parametrize("workers", [2, 4])
def test_bench_threaded_hogwild_epoch(benchmark, problem, workers):
    """Wall-clock of one real-thread Hogwild epoch (GIL-bound; correctness demo)."""
    from repro.core.balancing import random_order
    from repro.core.partition import partition_dataset
    from repro.runtime import ExecutionRequest, execute

    partition = partition_dataset(
        random_order(problem.n_samples, seed=0), problem.lipschitz_constants(), workers
    )
    request = ExecutionRequest(
        X=problem.X, y=problem.y, objective=problem.objective, partition=partition,
        rule="sgd", step_size=0.5, epochs=1, importance_sampling=True,
    )
    benchmark.pedantic(execute, args=("threads", request), rounds=2, iterations=1)


@pytest.mark.benchmark(group="threads")
def test_bench_backend_quality_agreement(benchmark, problem, cost_model):
    """Simulated vs threaded IS-ASGD reach comparable objective values."""

    def run():
        rows = []
        for mode in ("per_sample", "threads"):
            cfg = ISASGDConfig(step_size=0.5, epochs=4, num_workers=4, seed=0)
            result = ISASGDSolver(cfg, async_mode=mode, cost_model=cost_model).fit(problem)
            rows.append(
                {
                    "async_mode": mode,
                    "final_rmse": result.final_rmse,
                    "best_error_rate": result.best_error_rate,
                    "train_seconds_simulated": result.total_time,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(rows, title="IS-ASGD: simulator vs real-thread tier")
    print("\n" + text)
    write_result("threads_backend_agreement.txt", text)

    rmse = {r["async_mode"]: r["final_rmse"] for r in rows}
    assert abs(rmse["per_sample"] - rmse["threads"]) < 0.25
    for row in rows:
        assert row["best_error_rate"] < 0.45
