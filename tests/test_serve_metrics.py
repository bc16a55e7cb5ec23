"""Metrics-registry tests: instruments, snapshots, the text report."""

from __future__ import annotations

import threading

import pytest

from repro.serve import MetricsRegistry
from repro.serve.metrics import Counter, Gauge, Histogram, format_snapshot


class TestCounter:
    def test_monotonic(self) -> None:
        c = Counter("requests")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_thread_safe(self) -> None:
        c = Counter("x")
        threads = [
            threading.Thread(
                target=lambda: [c.inc() for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_and_add(self) -> None:
        g = Gauge("depth")
        g.set(10)
        g.add(-3)
        assert g.value == 7.0


class TestHistogram:
    def test_needs_sorted_buckets(self) -> None:
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", buckets=(3, 1, 2))
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", buckets=())

    def test_count_sum_mean_max(self) -> None:
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
        for v in (0.0005, 0.005, 0.05, 0.5):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(0.5555)
        assert h.mean == pytest.approx(0.5555 / 4)
        assert h.snapshot()["max"] == pytest.approx(0.5)

    def test_quantiles_ordered(self) -> None:
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
        for i in range(100):
            h.observe(0.0001 * (i + 1))
        assert 0.0 <= h.quantile(0.5) <= h.quantile(0.99)
        assert h.quantile(1.0) <= h.snapshot()["max"] + 1e-12

    def test_quantiles_never_exceed_max(self) -> None:
        # Five plan builds of 1.1-2.73 ms share the decade bucket
        # (1 ms, 10 ms]; interpolating up to its bound read p50 5.5 ms.
        h = Histogram("plan_build_seconds")
        for v in (0.0011, 0.0015, 0.0019, 0.0024, 0.00273):
            h.observe(v)
        snap = h.snapshot()
        for q in (0.5, 0.9, 0.99, 1.0):
            assert 0.001 <= h.quantile(q) <= snap["max"]
        assert snap["p50"] <= snap["p99"] <= snap["max"]
        assert h.quantile(1.0) == snap["max"]

    def test_quantile_validation(self) -> None:
        h = Histogram("lat")
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(0.0)
        assert h.quantile(0.5) == 0.0  # empty histogram

    def test_overflow_bucket(self) -> None:
        h = Histogram("lat", buckets=(0.1,))
        h.observe(5.0)
        assert h.count == 1
        assert h.quantile(0.99) <= 5.0


class TestRegistry:
    def test_instruments_are_singletons(self) -> None:
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_json_ready(self) -> None:
        import json

        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("total_seconds").observe(0.01)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["depth"] == 2.0
        assert snap["histograms"]["total_seconds"]["count"] == 1
        json.dumps(snap)  # must not raise

    def test_report_sections(self) -> None:
        registry = MetricsRegistry()
        registry.counter("cache_hits").inc(7)
        registry.gauge("queue_depth").set(3)
        registry.histogram("total_seconds").observe(0.25)
        registry.histogram("batch_size", buckets=(1, 2, 4)).observe(2)
        text = registry.report()
        assert "cache_hits" in text and "7" in text
        assert "latency (seconds)" in text
        assert "distributions:" in text
        assert "batch_size" in text

    def test_empty_report(self) -> None:
        assert MetricsRegistry().report() == "no metrics recorded"


class TestFormatSnapshot:
    def test_report_round_trips_through_format_snapshot(self) -> None:
        registry = MetricsRegistry()
        registry.counter("served").inc(4)
        registry.histogram("total_seconds").observe(0.1)
        assert registry.report() == format_snapshot(registry.snapshot())

    def test_empty_snapshot_renders_placeholder(self) -> None:
        assert format_snapshot({}) == "no metrics recorded"
