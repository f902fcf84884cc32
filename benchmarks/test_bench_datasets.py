"""Benchmark: surrogate-dataset synthesis must cost O(nnz), not O(rows × features).

The generator builds its feature-popularity CDF once per dataset; drawing a
row is then a ``searchsorted`` over that CDF, so the per-row cost depends on
the row's nnz only.  A generator that rebuilds the CDF per row (what
``Generator.choice(..., p=...)`` does on every call) pays O(n_features) per
row instead, and its per-row cost grows with the feature dimension.

The gate compares two catalog surrogates with similar per-row nnz (~18 vs
~60) but a 20x spread in dimension, measured in the same run:
``kdd_bridge`` (80k features) must synthesise at no more than 2x the per-row
seconds of ``news20`` (4k features).  A per-row CDF rebuild puts that ratio
far above the gate.  Timings are best of 3 fresh syntheses
(``use_cache=False``).  Results go to ``benchmarks/results/BENCH_datasets.json``.
"""

from __future__ import annotations

import json

from benchmarks.conftest import bench_environment, write_result
from repro.datasets.loader import load_dataset
from repro.utils.timer import measure_call

WIDE = "kdd_bridge"
NARROW = "news20"
REPEATS = 3
RATIO_GATE = 2.0


def _synthesis(name: str) -> dict:
    dataset = load_dataset(name, use_cache=False)
    seconds = measure_call(lambda: load_dataset(name, use_cache=False), repeats=REPEATS, warmup=0)
    return {
        "n_samples": dataset.n_samples,
        "n_features": dataset.n_features,
        "nnz": dataset.X.nnz,
        "best_seconds": seconds,
        "seconds_per_row": seconds / dataset.n_samples,
    }


def test_synthesis_cost_does_not_scale_with_dimension():
    wide, narrow = _synthesis(WIDE), _synthesis(NARROW)
    ratio = wide["seconds_per_row"] / narrow["seconds_per_row"]
    payload = {
        "environment": bench_environment(),
        "repeats": REPEATS,
        "datasets": {WIDE: wide, NARROW: narrow},
        "per_row_ratio": ratio,
        "gate": {"max_per_row_ratio": RATIO_GATE},
    }
    text = json.dumps(payload, indent=2, default=float)
    print("\n" + text)
    write_result("BENCH_datasets.json", text)

    assert ratio <= RATIO_GATE, (
        f"per-row synthesis on {WIDE} ({wide['n_features']} features) is {ratio:.2f}x "
        f"{NARROW} ({narrow['n_features']} features); gate is {RATIO_GATE}x"
    )
