"""Unit tests for the log-bucketed Histogram and its registry plumbing."""

import math
import random

import pytest

from repro.des import SeriesBundle
from repro.obs import Histogram, MetricsRegistry


class TestHistogramBasics:
    def test_count_sum_min_max_exact(self):
        h = Histogram("t")
        for v in (0.5, 2.0, 8.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(10.5)
        assert h.min() == 0.5
        assert h.max() == 8.0
        assert h.mean() == pytest.approx(3.5)

    def test_empty_histogram_raises(self):
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.quantile(0.5)
        with pytest.raises(ValueError):
            h.min()
        with pytest.raises(ValueError):
            h.mean()
        assert h.summary() == {"count": 0, "sum": 0.0}

    def test_quantile_bounds_checked(self):
        h = Histogram("t")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_single_observation_all_quantiles_exact(self):
        h = Histogram("t")
        h.observe(0.0117)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.0117)

    def test_underflow_bucket(self):
        h = Histogram("t")
        h.observe(-1.0)
        h.observe(0.0)
        h.observe(5.0)
        assert h.count == 3
        assert h.min() == -1.0
        # The two non-positive observations dominate the low quantiles.
        assert h.quantile(0.5) == -1.0
        assert h.quantile(1.0) == pytest.approx(5.0, rel=Histogram.GROWTH - 1)

    def test_quantile_within_bucket_resolution(self):
        """Any quantile is within one bucket growth factor of the exact
        order statistic, across 10 decades of magnitudes."""
        rng = random.Random(7)
        values = [10 ** rng.uniform(-5, 5) for _ in range(5000)]
        h = Histogram("t")
        for v in values:
            h.observe(v)
        values.sort()
        for q in (0.01, 0.25, 0.50, 0.90, 0.95, 0.99):
            exact = values[min(len(values) - 1, math.ceil(q * len(values)) - 1)]
            approx = h.quantile(q)
            assert exact / Histogram.GROWTH <= approx <= exact * Histogram.GROWTH, (
                q,
                exact,
                approx,
            )

    def test_extreme_quantiles_clamped_to_observed_range(self):
        h = Histogram("t")
        for v in (1.0, 1.05, 1.1, 97.0):
            h.observe(v)
        assert h.quantile(0.0) >= h.min()
        assert h.quantile(1.0) <= h.max()

    def test_summary_and_flatten(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert set(s) == {"count", "sum", "mean", "min", "max", "p50", "p95", "p99"}
        flat = h.flatten()
        assert flat["lat.count"] == 3
        assert flat["lat.max"] == 4.0


class TestRegistryHistograms:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.histograms() == {"h": reg.histogram("h")}

    def test_kind_collisions_with_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        with pytest.raises(ValueError, match="histogram"):
            reg.counter("h")
        with pytest.raises(ValueError, match="histogram"):
            reg.gauge("h")
        reg.counter("c")
        with pytest.raises(ValueError, match="counter"):
            reg.histogram("c")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert snap["c"] == 1.0
        assert snap["h.count"] == 1
        assert snap["h.p99"] == pytest.approx(3.0)
        assert "h" not in snap  # only the flattened keys

    def test_sample_into_bundle(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(2.0)
        bundle = SeriesBundle()
        reg.sample_into(bundle, 1.0)
        reg.histogram("h").observe(6.0)
        reg.sample_into(bundle, 2.0)
        assert bundle["h.count"].value_at(1.0) == 1
        assert bundle["h.count"].value_at(2.0) == 2
        assert bundle["h.max"].value_at(2.0) == 6.0
