"""Tests for the real thread-based Hogwild engine (``async_mode="threads"``)."""

import numpy as np
import pytest

from repro.async_engine.threads import ThreadedRuleEngine
from repro.async_engine.worker import build_workers
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.rules import available_rules, make_rule
from repro.runtime import ExecutionRequest, execute


@pytest.fixture()
def partition(small_problem):
    L = small_problem.lipschitz_constants()
    order = random_order(small_problem.n_samples, seed=0)
    return partition_dataset(order, L, num_workers=3)


def _engine(problem, partition, *, iterations=None, importance_sampling=True, y=None):
    workers = build_workers(
        partition,
        iterations or problem.n_samples // partition.num_workers,
        seed=0,
        importance_sampling=importance_sampling,
    )
    return ThreadedRuleEngine(
        X=problem.X,
        y=problem.y if y is None else y,
        workers=workers,
        update_rule=make_rule("sgd", problem.objective, 0.3),
    )


class TestThreadedRuleEngine:
    def test_epoch_updates_weights(self, small_problem, partition):
        engine = _engine(small_problem, partition, iterations=20)
        result = engine.run(1)
        assert np.linalg.norm(result.weights) > 0.0
        assert result.trace.epochs[0].iterations == 3 * 20
        assert engine.inner_iterations == 3 * 20

    def test_loss_decreases_over_epochs(self, small_problem, partition):
        obj = small_problem.objective
        engine = _engine(small_problem, partition)
        initial_loss = obj.full_loss(engine.weights, small_problem.X, small_problem.y)
        result = engine.run(3)
        final_loss = obj.full_loss(result.weights, small_problem.X, small_problem.y)
        assert final_loss < initial_loss

    def test_uniform_vs_importance_modes_both_work(self, small_problem, partition):
        obj = small_problem.objective
        zero_loss = obj.full_loss(
            np.zeros(small_problem.n_features), small_problem.X, small_problem.y
        )
        for importance in (True, False):
            engine = _engine(
                small_problem, partition, iterations=30, importance_sampling=importance
            )
            result = engine.run(2)
            assert obj.full_loss(result.weights, small_problem.X, small_problem.y) < zero_loss

    def test_one_snapshot_per_epoch(self, small_problem, partition):
        result = _engine(small_problem, partition, iterations=10).run(2)
        assert len(result.epoch_weights) == 2
        assert len(result.trace.epochs) == 2
        np.testing.assert_array_equal(result.epoch_weights[-1], result.weights)

    def test_invalid_args(self, small_problem, partition):
        engine = _engine(small_problem, partition, iterations=10)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            engine.run(0)
        with pytest.raises(ValueError, match="X and y row counts differ"):
            _engine(small_problem, partition, y=small_problem.y[:-1])


class TestOneWorkerPin:
    """One thread is a sequential run: it must equal the zero-delay simulator."""

    @pytest.mark.parametrize("policy", ["reshuffle", "regenerate"])
    @pytest.mark.parametrize("rule", available_rules())
    def test_threads_bit_identical_to_per_sample(self, small_problem, rule, policy):
        L = small_problem.lipschitz_constants()
        order = random_order(small_problem.n_samples, seed=1)
        partition = partition_dataset(order, L, num_workers=1)

        def run(mode):
            request = ExecutionRequest(
                X=small_problem.X,
                y=small_problem.y,
                objective=small_problem.objective,
                partition=partition,
                rule=rule,
                step_size=0.1,
                epochs=3,
                engine_seed=5,
                worker_seed=7,
                importance_sampling=True,
                reshuffle=policy == "reshuffle",
                regenerate=policy == "regenerate",
            )
            return execute(mode, request)

        reference = run("per_sample")
        threaded = run("threads")
        for ref_w, thr_w in zip(reference.epoch_weights, threaded.epoch_weights):
            np.testing.assert_array_equal(thr_w, ref_w)
        np.testing.assert_array_equal(threaded.weights, reference.weights)
        for ref_e, thr_e in zip(reference.trace.epochs, threaded.trace.epochs):
            assert thr_e.iterations == ref_e.iterations
            assert thr_e.sparse_coordinate_updates == ref_e.sparse_coordinate_updates
            assert thr_e.sample_draws == ref_e.sample_draws
            assert thr_e.dense_coordinate_updates == ref_e.dense_coordinate_updates
