"""Tests for the synthetic dataset generators."""

from collections import Counter

import numpy as np
import pytest

from repro.datasets.catalog import get_descriptor
from repro.datasets.synthetic import (
    SyntheticSpec,
    _feature_probabilities,
    heterogeneous_lipschitz_dataset,
    make_sparse_classification,
    make_sparse_regression,
)
from repro.objectives.logistic import LogisticObjective
from repro.sparse.csr import CSRMatrix
from repro.sparse.stats import psi
from repro.utils.rng import as_rng


class TestSyntheticSpec:
    def test_density_property(self):
        spec = SyntheticSpec(n_samples=10, n_features=100, nnz_per_sample=5.0)
        assert spec.density == pytest.approx(0.05)

    def test_density_capped_at_one(self):
        spec = SyntheticSpec(n_samples=10, n_features=4, nnz_per_sample=50.0)
        assert spec.density == 1.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=0, n_features=10, nnz_per_sample=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_features=10, nnz_per_sample=-1.0)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_features=10, nnz_per_sample=2.0, label_noise=0.9)


class TestClassificationGenerator:
    @pytest.fixture(scope="class")
    def spec(self):
        return SyntheticSpec(
            n_samples=300, n_features=150, nnz_per_sample=10.0, norm_spread=0.8, label_noise=0.0
        )

    def test_shapes(self, spec):
        X, y, w = make_sparse_classification(spec, seed=0)
        assert X.shape == (300, 150)
        assert y.shape == (300,)
        assert w.shape == (150,)

    def test_labels_are_pm1(self, spec):
        _, y, _ = make_sparse_classification(spec, seed=0)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_reproducible(self, spec):
        X1, y1, w1 = make_sparse_classification(spec, seed=7)
        X2, y2, w2 = make_sparse_classification(spec, seed=7)
        assert X1 == X2
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(w1, w2)

    def test_different_seeds_differ(self, spec):
        X1, _, _ = make_sparse_classification(spec, seed=1)
        X2, _, _ = make_sparse_classification(spec, seed=2)
        assert X1 != X2

    def test_sparsity_near_target(self, spec):
        X, _, _ = make_sparse_classification(spec, seed=0)
        avg_nnz = X.nnz / X.n_rows
        assert 0.5 * spec.nnz_per_sample <= avg_nnz <= 1.5 * spec.nnz_per_sample

    def test_no_empty_rows(self, spec):
        X, _, _ = make_sparse_classification(spec, seed=0)
        assert int(np.min(X.row_nnz())) >= 1

    def test_labels_mostly_consistent_with_planted_model(self, spec):
        X, y, w_true = make_sparse_classification(spec, seed=3)
        margins = X.dot(w_true)
        agreement = np.mean(np.sign(margins) == y)
        assert agreement > 0.9  # label_noise = 0 here

    def test_norm_spread_controls_psi(self):
        narrow = SyntheticSpec(n_samples=400, n_features=100, nnz_per_sample=8.0, norm_spread=0.05)
        wide = SyntheticSpec(n_samples=400, n_features=100, nnz_per_sample=8.0, norm_spread=1.5)
        obj = LogisticObjective()
        Xn, yn, _ = make_sparse_classification(narrow, seed=0)
        Xw, yw, _ = make_sparse_classification(wide, seed=0)
        psi_narrow = psi(obj.lipschitz_constants(Xn, yn))
        psi_wide = psi(obj.lipschitz_constants(Xw, yw))
        assert psi_wide < psi_narrow  # heavier tail => smaller psi => bigger IS gain


class TestRegressionGenerator:
    def test_targets_follow_linear_model(self):
        spec = SyntheticSpec(n_samples=200, n_features=50, nnz_per_sample=6.0, norm_spread=0.3)
        X, y, w_true = make_sparse_regression(spec, seed=0, noise_std=0.01)
        preds = X.dot(w_true)
        residual = np.linalg.norm(y - preds) / np.linalg.norm(y)
        assert residual < 0.05

    def test_noise_increases_residual(self):
        spec = SyntheticSpec(n_samples=200, n_features=50, nnz_per_sample=6.0, norm_spread=0.3)
        _, y_low, w = make_sparse_regression(spec, seed=0, noise_std=0.01)
        _, y_high, _ = make_sparse_regression(spec, seed=0, noise_std=1.0)
        assert np.std(y_high - y_low) > 0.1


class TestHeavyTailConvenience:
    def test_produces_low_psi(self):
        X, y, _ = heterogeneous_lipschitz_dataset(300, 100, seed=0, heavy_tail=1.8)
        obj = LogisticObjective()
        assert psi(obj.lipschitz_constants(X, y)) < 0.6


# ---------------------------------------------------------------------- #
# Bit-identity oracle: the original per-row generator, kept verbatim as the
# reference.  It redraws each row with ``rng.choice(p=...)`` (an O(n_features)
# CDF per row) and assembles through ``CSRMatrix.from_rows``; the fast
# generator must reproduce its datasets exactly.
# ---------------------------------------------------------------------- #
def _reference_row_support(rng, n_features, nnz, feature_probs, branches):
    nnz = min(max(1, nnz), n_features)
    if nnz >= n_features:
        branches["arange"] += 1
        return np.arange(n_features, dtype=np.int64)
    draw = rng.choice(n_features, size=min(n_features, 2 * nnz + 8), replace=True, p=feature_probs)
    support = np.unique(draw)[:nnz]
    if support.size < nnz:
        branches["top_up"] += 1
        remaining = np.setdiff1d(
            rng.choice(n_features, size=min(n_features, 4 * nnz + 16), replace=False),
            support,
            assume_unique=False,
        )
        support = np.concatenate([support, remaining[: nnz - support.size]])
    return np.sort(support[:nnz]).astype(np.int64)


def _reference_classification(spec, seed, branches):
    rng = as_rng(seed)
    feature_probs = _feature_probabilities(spec.n_features, spec.feature_skew)
    w_true = rng.normal(0.0, 1.0, size=spec.n_features)
    rows = []
    labels = np.empty(spec.n_samples, dtype=np.float64)
    row_nnz = np.maximum(1, rng.poisson(lam=spec.nnz_per_sample, size=spec.n_samples))
    norm_mult = np.exp(rng.normal(0.0, spec.norm_spread, size=spec.n_samples))
    for i in range(spec.n_samples):
        support = _reference_row_support(
            rng, spec.n_features, int(row_nnz[i]), feature_probs, branches
        )
        values = rng.normal(0.0, 1.0, size=support.size)
        norm = np.linalg.norm(values)
        if norm > 0:
            values = values / norm * norm_mult[i]
        rows.append((support, values))
        margin = float(np.dot(values, w_true[support]))
        if rng.random() < spec.bias_fraction:
            label = 1.0 if margin >= 0 else -1.0
        else:
            label = 1.0 if rng.random() < 0.5 else -1.0
        if rng.random() < spec.label_noise:
            label = -label
        labels[i] = label
    return CSRMatrix.from_rows(rows, n_cols=spec.n_features), labels, w_true


_SMOKE_CASES = [
    pytest.param(get_descriptor(name).surrogate, seed, None, id=f"{name}-seed{seed}")
    for name in ("news20_smoke", "url_smoke", "kdd_algebra_smoke", "kdd_bridge_smoke")
    for seed in (0, 1)
]

_ORACLE_CASES = _SMOKE_CASES + [
    pytest.param(get_descriptor("url").surrogate, 401, None, id="url-seed401"),
    # Few features, many draws, a steep Zipf law: the de-duplicated draw is
    # routinely short, forcing the uniform top-up.
    pytest.param(
        SyntheticSpec(n_samples=200, n_features=40, nnz_per_sample=30.0, feature_skew=3.0),
        5, "top_up", id="top-up",
    ),
    # nnz_per_sample >= n_features: most rows take the whole feature range.
    pytest.param(
        SyntheticSpec(n_samples=50, n_features=8, nnz_per_sample=12.0),
        6, "arange", id="full-rows",
    ),
    pytest.param(
        SyntheticSpec(n_samples=300, n_features=500, nnz_per_sample=15.0, feature_skew=0.0),
        7, None, id="uniform-popularity",
    ),
]


class TestBitIdentityOracle:
    @pytest.mark.parametrize("spec, seed, branch", _ORACLE_CASES)
    def test_matches_reference_generator(self, spec, seed, branch):
        branches = Counter()
        X_ref, y_ref, w_ref = _reference_classification(spec, seed, branches)
        X, y, w_true = make_sparse_classification(spec, seed=seed)
        if branch is not None:
            assert branches[branch] > 0, f"spec does not exercise the {branch} branch"
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(X, name), getattr(X_ref, name), err_msg=name)
            assert getattr(X, name).dtype == getattr(X_ref, name).dtype, name
        assert X.n_cols == X_ref.n_cols
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(w_true, w_ref)

    def test_exact_zero_values_dropped_like_reference(self):
        class ZeroingGenerator(np.random.Generator):
            """Zeroes the first value of every third row and all of every seventh."""

            calls = 0

            def normal(self, loc=0.0, scale=1.0, size=None):
                out = super().normal(loc, scale, size)
                self.calls += 1
                row = self.calls - 3  # calls 1 and 2 draw w_true and the norm multipliers
                if row >= 0 and row % 7 == 0:
                    out[:] = 0.0
                elif row >= 0 and row % 3 == 0:
                    out[0] = 0.0
                return out

        spec = SyntheticSpec(n_samples=60, n_features=200, nnz_per_sample=6.0)
        X_ref, y_ref, _ = _reference_classification(
            spec, ZeroingGenerator(np.random.PCG64(3)), Counter()
        )
        X, y, _ = make_sparse_classification(spec, seed=ZeroingGenerator(np.random.PCG64(3)))
        assert int(np.min(X_ref.row_nnz())) == 0  # all-zero rows are stored empty
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(X, name), getattr(X_ref, name), err_msg=name)
        np.testing.assert_array_equal(y, y_ref)
