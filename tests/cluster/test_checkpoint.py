"""Checkpoint codec, store, and resume round-trip tests.

The strongest guarantees in this suite are *bit-identity* ones: the
checkpoint's JSON number-list codec is exact, a checkpoint restored onto a new plan remaps weights
exactly, and — because the sampler stream is derived from
``(seed_root, worker_id, epoch)`` alone — a single-worker run resumed from
a mid-run checkpoint replays the remaining epochs byte-identically to the
uninterrupted run (weights, rule state, trace and counters all equal).
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.cluster import CheckpointStore, ClusterDriver
from repro.cluster.checkpoint import ClusterCheckpoint, EpochSeries
from repro.core.balancing import random_order
from repro.core.partition import partition_dataset
from repro.datasets.synthetic import SyntheticSpec, make_sparse_classification
from repro.objectives.logistic import LogisticObjective
from repro.objectives.regularizers import L2Regularizer
from repro.solvers.base import Problem

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)

EPOCHS = 4
HALF = 2


@pytest.fixture(scope="module")
def ckpt_problem() -> Problem:
    spec = SyntheticSpec(
        n_samples=300, n_features=80, nnz_per_sample=6.0, label_noise=0.02, name="ckpt_test"
    )
    X, y, _ = make_sparse_classification(spec, seed=11)
    objective = LogisticObjective(regularizer=L2Regularizer(1e-4))
    return Problem(X=X, y=y, objective=objective, name=spec.name)


def _partition(problem, workers):
    L = problem.lipschitz_constants()
    order = random_order(problem.n_samples, seed=0)
    return partition_dataset(order, L, workers, scheme="uniform")


def _driver(problem, workers, store, **kwargs):
    defaults = dict(step_size=0.15, seed=9, start_method="fork", checkpoint_store=store)
    defaults.update(kwargs)
    return ClusterDriver(
        problem.X, problem.y, problem.objective, _partition(problem, workers), **defaults
    )


class TestArrayCodec:
    """Checkpoint arrays are JSON number lists; save -> load is bit-exact."""

    EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, 1.0 / 3.0]
    INT_EXTREMES = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1]

    def _round_trip(self, tmp_path, **fields):
        identity = {"kind": "cluster_checkpoint", "run_id": "codec"}
        base = dict(
            identity=identity, epoch=2, num_workers=2, num_shards=2,
            shard_scheme="range", weights=np.zeros(3), rule="saga",
        )
        base.update(fields)
        store = CheckpointStore(tmp_path)
        store.save(ClusterCheckpoint(**base))
        return store.load(identity, 2)

    @pytest.mark.parametrize("dtype", ["float64", "int64"])
    def test_round_trip_is_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        if dtype == "int64":
            counters = np.array(
                self.INT_EXTREMES + list(rng.integers(-(2**62), 2**62, size=5)), np.int64
            )
            loaded = self._round_trip(
                tmp_path, counters=counters, shard_write_totals=counters[::-1].copy()
            )
            assert loaded.counters.dtype == np.int64
            assert loaded.counters.tobytes() == counters.tobytes()
            assert loaded.shard_write_totals.tobytes() == counters[::-1].tobytes()
        else:
            weights = rng.standard_normal(257) * 1e30
            loaded = self._round_trip(tmp_path, weights=weights)
            assert loaded.weights.dtype == np.float64
            assert loaded.weights.tobytes() == weights.tobytes()

    def test_special_values_survive(self, tmp_path):
        special = np.array(self.EXTREMES)
        series = EpochSeries(epoch_weights=[special, special[::-1].copy()])
        loaded = self._round_trip(
            tmp_path,
            weights=np.append(special, np.nan),
            rule_state={"saga_coefs": special[::-1].copy(), "saga_avg": special},
            series=series,
        )
        assert loaded.weights[:-1].tobytes() == special.tobytes()
        assert np.isnan(loaded.weights[-1])
        assert loaded.rule_state["saga_coefs"].tobytes() == special[::-1].tobytes()
        assert loaded.rule_state["saga_avg"].tobytes() == special.tobytes()
        assert [w.tobytes() for w in loaded.series.epoch_weights] == [
            special.tobytes(), special[::-1].tobytes()
        ]


class TestCheckpointStore:
    def _checkpoint(self, identity, epoch, dim=16):
        rng = np.random.default_rng(epoch)
        return ClusterCheckpoint(
            identity=identity,
            epoch=epoch,
            num_workers=2,
            num_shards=2,
            shard_scheme="range",
            weights=rng.standard_normal(dim),
            rule="sgd",
            sampler={"seed_root": 7, "next_epoch_seeds": [1, 2]},
        )

    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "a"}
        ckpt = self._checkpoint(identity, 3)
        path = store.save(ckpt)
        assert path.exists()
        loaded = store.load(identity, 3)
        assert loaded.epoch == 3
        assert loaded.identity == identity
        assert ckpt.weights.tobytes() == loaded.weights.tobytes()
        assert loaded.sampler == ckpt.sampler

    def test_latest_and_max_epoch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "b"}
        for epoch in (1, 2, 5):
            store.save(self._checkpoint(identity, epoch))
        assert store.epochs(identity) == [1, 2, 5]
        assert store.latest(identity).epoch == 5
        assert store.latest(identity, max_epoch=4).epoch == 2
        assert store.latest(identity, max_epoch=0) is None

    def test_identities_do_not_collide(self, tmp_path):
        store = CheckpointStore(tmp_path)
        a = {"kind": "cluster_checkpoint", "run_id": "a"}
        b = {"kind": "cluster_checkpoint", "run_id": "b"}
        store.save(self._checkpoint(a, 1))
        assert store.latest(b) is None
        with pytest.raises(ValueError, match="missing or corrupt"):
            store.load(b, 1)

    def test_corrupt_file_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "c"}
        path = store.save(self._checkpoint(identity, 1))
        path.write_text("{not json")
        with pytest.raises(ValueError, match="missing or corrupt"):
            store.load(identity, 1)

    def test_format_version_is_enforced(self, tmp_path):
        import json

        store = CheckpointStore(tmp_path)
        identity = {"kind": "cluster_checkpoint", "run_id": "d"}
        path = store.save(self._checkpoint(identity, 1))
        entry = json.loads(path.read_text())
        entry["format_version"] = 999
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match="format_version"):
            store.load(identity, 1)


class TestResumeRoundTrip:
    """Mid-run snapshot -> restore parity for every rule."""

    @pytest.mark.parametrize("rule", ["sgd", "svrg", "saga"])
    def test_single_worker_resume_is_bit_identical(self, ckpt_problem, tmp_path, rule):
        """One worker is deterministic, so resume must replay *exactly*."""
        store_a = CheckpointStore(tmp_path / "a")
        store_b = CheckpointStore(tmp_path / "b")
        step = 0.05 if rule == "saga" else 0.15

        full = _driver(ckpt_problem, 1, store_a, rule=rule, step_size=step).run(EPOCHS)

        _driver(ckpt_problem, 1, store_b, rule=rule, step_size=step).run(HALF)
        resumed_driver = _driver(ckpt_problem, 1, store_b, rule=rule, step_size=step)
        resumed = resumed_driver.run(EPOCHS, resume=True)

        assert resumed.info["resumed_from_epoch"] == HALF
        assert full.weights.tobytes() == resumed.weights.tobytes()
        assert full.trace.to_dict() == resumed.trace.to_dict()
        # The stored mid-run checkpoint equals the uninterrupted run's
        # epoch snapshot bit-for-bit.
        ckpt = store_b.load(resumed_driver.checkpoint_identity(), HALF)
        assert ckpt.weights.tobytes() == full.epoch_weights[HALF - 1].tobytes()
        # Sampler stream position: the seeds the resumed fleet used are
        # exactly the ones the checkpoint advertised.
        assert ckpt.sampler["next_epoch_seeds"] == [resumed_driver.epoch_seed(0, HALF)]

    def test_resume_skips_all_epochs_when_complete(self, ckpt_problem, tmp_path):
        store = CheckpointStore(tmp_path)
        first = _driver(ckpt_problem, 2, store).run(EPOCHS)
        again = _driver(ckpt_problem, 2, store).run(EPOCHS, resume=True)
        assert again.info["resumed_from_epoch"] == EPOCHS
        assert first.weights.tobytes() == again.weights.tobytes()
        assert len(again.trace.epochs) == EPOCHS

    def test_resume_requires_store(self, ckpt_problem):
        driver = _driver(ckpt_problem, 2, None)
        with pytest.raises(ValueError, match="requires a checkpoint_store"):
            driver.run(EPOCHS, resume=True)

    def test_resume_without_checkpoint_starts_fresh(self, ckpt_problem, tmp_path):
        store = CheckpointStore(tmp_path)
        result = _driver(ckpt_problem, 2, store).run(2, resume=True)
        assert result.info["resumed_from_epoch"] == 0
        assert len(result.trace.epochs) == 2

    def test_checkpoint_every_thins_persistence(self, ckpt_problem, tmp_path):
        store = CheckpointStore(tmp_path)
        driver = _driver(ckpt_problem, 2, store, checkpoint_every=3)
        driver.run(EPOCHS)
        # Epoch 3 (multiple of 3) and the final epoch are persisted.
        assert store.epochs(driver.checkpoint_identity()) == [3, EPOCHS]


class TestElasticResume:
    """Membership changes across a resume: dynamic re-sharding."""

    @pytest.mark.parametrize("workers_before,workers_after", [(2, 3), (3, 2), (1, 4)])
    def test_resume_at_different_worker_count(
        self, ckpt_problem, tmp_path, workers_before, workers_after
    ):
        store = CheckpointStore(tmp_path)
        _driver(ckpt_problem, workers_before, store).run(HALF)
        resumed = _driver(ckpt_problem, workers_after, store).run(EPOCHS, resume=True)
        assert resumed.info["resumed_from_epoch"] == HALF
        assert resumed.info["num_workers"] == workers_after
        assert len(resumed.trace.epochs) == EPOCHS
        assert [e.epoch for e in resumed.trace.epochs] == list(range(EPOCHS))
        assert np.all(np.isfinite(resumed.weights))

    def test_resume_across_shard_schemes_preserves_weights(self, ckpt_problem, tmp_path):
        """range -> coloring resume: weights carry over bit-identically."""
        store = CheckpointStore(tmp_path)
        _driver(ckpt_problem, 2, store).run(HALF)
        range_driver = _driver(ckpt_problem, 2, store)
        ckpt = store.latest(range_driver.checkpoint_identity())

        coloring_driver = _driver(
            ckpt_problem, 2, store, shard_scheme="coloring", num_shards=4,
        )
        # Identity excludes membership AND layout, so the coloring driver
        # sees the range run's checkpoint...
        assert coloring_driver.checkpoint_identity() == range_driver.checkpoint_identity()
        resumed = coloring_driver.run(EPOCHS, resume=True)
        assert resumed.info["resumed_from_epoch"] == HALF
        assert resumed.info["shard_scheme"] == "coloring"
        # ...and a zero-step resume of one epoch would start exactly from
        # the checkpointed weights; verify the remap directly instead:
        flat = coloring_driver.plan.flatten_vector(ckpt.weights)
        back = coloring_driver.plan.unflatten(flat)
        assert back.tobytes() == ckpt.weights.tobytes()
