"""Unit tests for the micro-batching request queue."""

import threading

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.registry import make_objective
from repro.serving import MicroBatcher, ModelRef, ScoringModel


@pytest.fixture(scope="module")
def served():
    spec = SyntheticSpec(
        n_samples=60,
        n_features=40,
        nnz_per_sample=6.0,
        feature_skew=1.0,
        norm_spread=0.5,
        label_noise=0.02,
        name="serving_batcher_smoke",
    )
    X, _, _ = make_sparse_classification(spec, seed=5)
    rng = np.random.default_rng(1)
    model = ScoringModel(rng.normal(size=spec.n_features), make_objective("logistic_l1"))
    return X, model


@pytest.mark.parametrize("lanes", [1, 3])
def test_batched_margins_match_direct_scoring(served, lanes):
    X, model = served
    expected = model.decision_function(X)
    with MicroBatcher(model, lanes=lanes, max_batch=16) as batcher:
        pending = [batcher.submit(*X.row(i)) for i in range(X.n_rows)]
        responses = [p.result(timeout=10.0) for p in pending]
    for i, response in enumerate(responses):
        assert response["margin"] == pytest.approx(expected[i], abs=1e-12)
        assert response["model_version"] == model.version
        assert response["cached"] is False
    stats = batcher.stats()
    assert stats["submitted"] == stats["answered"] == X.n_rows
    assert stats["largest_batch"] <= 16


def test_requests_actually_coalesce(served):
    X, model = served
    # One lane + a generous coalescing window: queries submitted while the
    # lane is busy must be scored together, not one kernel call each.
    with MicroBatcher(model, lanes=1, max_batch=64, max_delay_us=20_000.0) as batcher:
        pending = [batcher.submit(*X.row(i % X.n_rows)) for i in range(50)]
        for p in pending:
            p.result(timeout=10.0)
        stats = batcher.stats()
    assert stats["batches"] < 50  # strictly fewer kernel calls than queries
    assert stats["largest_batch"] > 1
    assert stats["mean_batch"] > 1.0


def test_result_cache_hits_repeat_queries(served):
    X, model = served
    idx, val = X.row(3)
    with MicroBatcher(model, lanes=1, cache_size=8) as batcher:
        first = batcher.score(idx, val)
        second = batcher.score(idx, val)
    assert first["cached"] is False
    assert second["cached"] is True
    assert second["margin"] == first["margin"]
    stats = batcher.stats()
    assert stats["cache"]["hits"] == 1
    assert stats["cache"]["misses"] == 1


def test_cache_is_keyed_by_model_version(served):
    X, model = served
    idx, val = X.row(0)
    ref = ModelRef(model)
    other = ScoringModel(np.zeros(model.n_features), make_objective("logistic_l1"))
    with MicroBatcher(ref, lanes=1, cache_size=8) as batcher:
        before = batcher.score(idx, val)
        ref.swap(other)
        after = batcher.score(idx, val)
    assert before["cached"] is False
    assert after["cached"] is False  # the swap invalidated the cached margin
    assert after["model_version"] == before["model_version"] + 1
    assert after["margin"] == 0.0


def test_include_proba_attaches_probabilities(served):
    X, model = served
    with MicroBatcher(model, include_proba=True) as batcher:
        response = batcher.score(*X.row(2))
    assert 0.0 <= response["proba"] <= 1.0

    hinge = ScoringModel(
        np.asarray(model.weights), make_objective("hinge")
    )
    with MicroBatcher(hinge, include_proba=True) as batcher:
        response = batcher.score(*X.row(2))
    assert "proba" not in response  # hinge has no probabilistic interpretation


def test_submit_rejects_out_of_range_queries(served):
    _, model = served
    with MicroBatcher(model) as batcher:
        with pytest.raises(ValueError, match="out of range"):
            batcher.submit([model.n_features], [1.0])


def test_narrowing_swap_fails_only_the_stale_query():
    """A query valid at submit time but out of range for the model swapped in
    before scoring gets its own ValueError; the rest of its batch is scored."""
    objective = make_objective("logistic_l1")
    wide = ScoringModel(np.linspace(-1.0, 1.0, 100), objective)
    narrow = ScoringModel(np.arange(1.0, 11.0), objective)
    ref = ModelRef(wide)
    with MicroBatcher(ref, lanes=1, max_batch=8, max_delay_us=0.0) as batcher:
        # Holding the queue lock keeps the lane from taking a batch, so both
        # queries are queued under `wide` and scored under `narrow`.
        with batcher._cond:
            valid = batcher.submit([2, 7], [1.0, 0.5])
            stale = batcher.submit([3, 50], [1.0, 1.0])
            ref.swap(narrow)
        response = valid.result(timeout=10.0)
        with pytest.raises(ValueError, match="out of range for a 10-feature model"):
            stale.result(timeout=10.0)
    assert response["model_version"] == narrow.version
    assert response["margin"] == pytest.approx(3.0 + 0.5 * 8.0)


def test_overflowing_margin_fails_only_that_query():
    """Finite values whose dot product overflows get a per-request error;
    the co-batched queries are still answered and nothing is cached."""
    model = ScoringModel(np.ones(2), make_objective("logistic_l1"))
    with MicroBatcher(model, lanes=1, max_batch=8, max_delay_us=0.0, cache_size=8) as batcher:
        with batcher._cond:  # queue all three so they share one batch
            before = batcher.submit([0], [0.5])
            overflow = batcher.submit([0, 1], [1e308, 1e308])
            after = batcher.submit([1], [-0.25])
        assert before.result(timeout=10.0)["margin"] == 0.5
        with pytest.raises(ValueError, match="margin is not finite"):
            overflow.result(timeout=10.0)
        assert after.result(timeout=10.0)["margin"] == -0.25
        assert len(batcher.cache) == 2
    assert batcher.stats()["batches"] == 1


def test_submit_after_close_raises(served):
    X, model = served
    batcher = MicroBatcher(model)
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(*X.row(0))


def test_close_drains_outstanding_queries(served):
    X, model = served
    batcher = MicroBatcher(model, lanes=2, max_batch=4)
    pending = [batcher.submit(*X.row(i % X.n_rows)) for i in range(120)]
    batcher.close()  # must answer everything already enqueued
    assert all(p.done() for p in pending)
    assert batcher.stats()["answered"] == 120


def test_concurrent_clients_all_get_correct_answers(served):
    X, model = served
    expected = model.decision_function(X)
    errors = []

    def client(seed: int, batcher: MicroBatcher) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(40):
            i = int(rng.integers(X.n_rows))
            response = batcher.score(*X.row(i), timeout=10.0)
            if abs(response["margin"] - expected[i]) > 1e-9:
                errors.append((i, response["margin"], expected[i]))

    with MicroBatcher(model, lanes=4, max_batch=8, cache_size=32) as batcher:
        threads = [
            threading.Thread(target=client, args=(seed, batcher)) for seed in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors


def test_invalid_construction():
    model = ScoringModel(np.zeros(3), make_objective("logistic_l1"))
    with pytest.raises(ValueError, match="lanes"):
        MicroBatcher(model, lanes=0)
    with pytest.raises(ValueError, match="max_batch"):
        MicroBatcher(model, max_batch=0)
