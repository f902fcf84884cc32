"""Unit tests of the cluster's shard-occupancy statistic."""

import pytest

from repro.cluster import occupancy_skew


class TestOccupancySkew:
    def test_even_spread_is_zero(self):
        assert occupancy_skew([10, 10, 10, 10]) == pytest.approx(0.0)

    def test_single_hot_shard_is_max(self):
        assert occupancy_skew([100, 0, 0, 0]) == pytest.approx(3.0)

    def test_empty_is_zero(self):
        assert occupancy_skew([]) == 0.0
        assert occupancy_skew([0, 0]) == 0.0
