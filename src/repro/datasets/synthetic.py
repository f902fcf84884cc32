"""Synthetic sparse dataset generators.

The generators produce linearly-separable-with-noise classification (and
regression) problems with precise control over the three properties the
IS-ASGD algorithms are sensitive to:

* **per-sample sparsity** — how many features each sample touches, which
  determines the cost of an index-compressed update and the conflict-graph
  density Δ̄;
* **feature-popularity skew** — a Zipf-like column distribution so that a
  few "hot" features are shared by many samples (this is what creates
  update conflicts in asynchronous execution, like the frequent tokens of
  News20 or the hot URL features);
* **row-norm heterogeneity** — a log-normal spread of sample norms, which
  directly controls the spread of the Lipschitz constants and therefore ψ
  (Eq. 15) and ρ (Eq. 20): heavy-tailed norms mean low ψ and large IS gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_in_range, check_positive


@dataclass
class SyntheticSpec:
    """Recipe for a synthetic sparse classification dataset.

    Parameters
    ----------
    n_samples, n_features:
        Size of the design matrix.
    nnz_per_sample:
        Average number of non-zero features per sample (the generator draws
        per-row counts around this mean, minimum 1).
    feature_skew:
        Zipf exponent for feature popularity; 0 gives uniform feature usage,
        values around 1–1.5 concentrate mass on a few hot features.
    norm_spread:
        Standard deviation of the log-normal row-norm multiplier.  0 makes
        every row the same norm (ψ → 1, no IS gain); larger values create a
        heavy tail (ψ ≪ 1, large IS gain).
    label_noise:
        Probability of flipping a label after the linear rule assigns it.
    bias_fraction:
        Fraction of samples whose label is decided by the dense "ground
        truth" weight vector restricted to their support; the rest are
        assigned random labels (models the non-separable part of real data).
    """

    n_samples: int
    n_features: int
    nnz_per_sample: float
    feature_skew: float = 1.1
    norm_spread: float = 0.8
    label_noise: float = 0.05
    bias_fraction: float = 1.0
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.n_samples <= 0 or self.n_features <= 0:
            raise ValueError("n_samples and n_features must be positive")
        check_positive(self.nnz_per_sample, "nnz_per_sample")
        check_in_range(self.feature_skew, "feature_skew", low=0.0, high=10.0)
        check_in_range(self.norm_spread, "norm_spread", low=0.0, high=10.0)
        check_in_range(self.label_noise, "label_noise", low=0.0, high=0.5)
        check_in_range(self.bias_fraction, "bias_fraction", low=0.0, high=1.0)

    @property
    def density(self) -> float:
        """Expected fraction of non-zeros per row."""
        return min(1.0, self.nnz_per_sample / self.n_features)


def _feature_probabilities(n_features: int, skew: float) -> np.ndarray:
    """Zipf-like feature popularity distribution (normalised)."""
    ranks = np.arange(1, n_features + 1, dtype=np.float64)
    if skew == 0.0:
        p = np.ones(n_features)
    else:
        p = ranks ** (-skew)
    return p / p.sum()


def _draw_row_support(
    rng: np.random.Generator,
    n_features: int,
    nnz: int,
    feature_cdf: np.ndarray,
) -> np.ndarray:
    """Draw ``nnz`` distinct feature indices according to the popularity law.

    ``feature_cdf`` is the normalised cumulative popularity distribution
    (last entry exactly 1), built once per dataset.  Inverting it with
    ``searchsorted`` is the same computation ``Generator.choice(...,
    replace=True, p=...)`` performs internally — same uniforms, same
    indices — without rebuilding an O(n_features) CDF for every row.
    Returns exactly ``min(max(1, nnz), n_features)`` sorted, distinct
    indices.
    """
    nnz = min(max(1, nnz), n_features)
    if nnz >= n_features:
        return np.arange(n_features, dtype=np.int64)
    # Rejection-free draw: sample extra, de-duplicate, top up uniformly if short.
    uniforms = rng.random(min(n_features, 2 * nnz + 8))
    support = np.unique(feature_cdf.searchsorted(uniforms, side="right"))[:nnz]
    if support.size < nnz:
        remaining = np.setdiff1d(
            rng.choice(n_features, size=min(n_features, 4 * nnz + 16), replace=False),
            support,
            assume_unique=False,
        )
        support = np.sort(np.concatenate([support, remaining[: nnz - support.size]]))
    return support


def make_sparse_classification(
    spec: SyntheticSpec,
    seed: RandomState = None,
) -> Tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Generate ``(X, y, w_true)`` for a binary classification problem.

    Labels are in {-1, +1}.  ``w_true`` is the planted ground-truth weight
    vector; it is returned so tests can verify that solvers recover a model
    correlated with it.

    Cost is O(n_features + nnz): the popularity CDF is built once and every
    row writes straight into preallocated CSR arrays.
    """
    rng = as_rng(seed)
    feature_cdf = _feature_probabilities(spec.n_features, spec.feature_skew).cumsum()
    feature_cdf /= feature_cdf[-1]
    w_true = rng.normal(0.0, 1.0, size=spec.n_features)

    labels = np.empty(spec.n_samples, dtype=np.float64)
    # Per-row nnz: Poisson around the target mean, at least 1.
    row_nnz = np.maximum(1, rng.poisson(lam=spec.nnz_per_sample, size=spec.n_samples))
    # Per-row norm multiplier: log-normal with median 1.
    norm_mult = np.exp(rng.normal(0.0, spec.norm_spread, size=spec.n_samples))

    # Every row gets exactly min(row_nnz, n_features) distinct indices, so
    # the row pointer is known before any support is drawn.
    indptr = np.zeros(spec.n_samples + 1, dtype=np.int64)
    np.cumsum(np.minimum(row_nnz, spec.n_features), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=CSRMatrix.INDEX_DTYPE)
    data = np.empty(int(indptr[-1]), dtype=np.float64)

    for i in range(spec.n_samples):
        support = _draw_row_support(rng, spec.n_features, int(row_nnz[i]), feature_cdf)
        values = rng.normal(0.0, 1.0, size=support.size)
        norm = np.linalg.norm(values)
        if norm > 0:
            values = values / norm * norm_mult[i]
        indices[indptr[i]:indptr[i + 1]] = support
        data[indptr[i]:indptr[i + 1]] = values

        margin = float(np.dot(values, w_true[support]))
        if rng.random() < spec.bias_fraction:
            label = 1.0 if margin >= 0 else -1.0
        else:
            label = 1.0 if rng.random() < 0.5 else -1.0
        if rng.random() < spec.label_noise:
            label = -label
        labels[i] = label

    # Drop exact zeros (a normal draw of exactly 0.0), as CSRMatrix.from_rows does.
    nonzero = data != 0.0
    if not nonzero.all():
        row_of = np.repeat(np.arange(spec.n_samples), np.diff(indptr))
        kept = np.bincount(row_of[nonzero], minlength=spec.n_samples)
        np.cumsum(kept, out=indptr[1:])
        indices, data = indices[nonzero], data[nonzero]

    X = CSRMatrix(data=data, indices=indices, indptr=indptr, n_cols=spec.n_features)
    return X, labels, w_true


def make_sparse_regression(
    spec: SyntheticSpec,
    seed: RandomState = None,
    noise_std: float = 0.1,
) -> Tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Generate ``(X, y, w_true)`` for a sparse linear-regression problem.

    ``y_i = <x_i, w_true> + noise`` with Gaussian noise of standard
    deviation ``noise_std``.
    """
    rng = as_rng(seed)
    X, _, w_true = make_sparse_classification(spec, seed=rng)
    y = X.dot(w_true) + rng.normal(0.0, noise_std, size=X.n_rows)
    return X, y, w_true


def heterogeneous_lipschitz_dataset(
    n_samples: int,
    n_features: int,
    *,
    nnz_per_sample: float = 10.0,
    heavy_tail: float = 1.5,
    seed: RandomState = None,
    name: str = "heavy_tail",
) -> Tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Convenience generator with a deliberately heavy-tailed norm distribution.

    Produces a dataset with ψ well below 1 so the importance-sampling gain
    (and the importance-balancing problem) is pronounced — the regime where
    the paper's Figure 2 story matters.
    """
    spec = SyntheticSpec(
        n_samples=n_samples,
        n_features=n_features,
        nnz_per_sample=nnz_per_sample,
        feature_skew=1.2,
        norm_spread=heavy_tail,
        label_noise=0.02,
        name=name,
    )
    return make_sparse_classification(spec, seed=seed)


__all__ = [
    "SyntheticSpec",
    "make_sparse_classification",
    "make_sparse_regression",
    "heterogeneous_lipschitz_dataset",
]
