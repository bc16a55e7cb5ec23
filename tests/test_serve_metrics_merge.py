"""Multi-process metrics aggregation: merge_snapshots and fork-safety.

The contract under test is the one ``repro.cluster`` relies on: workers
ship *cumulative* registry snapshots, the aggregator keeps the latest
per worker incarnation and merges those — so repeats, replays and
crashed-then-respawned workers can never double count.
"""

from __future__ import annotations

import pytest

from repro.serve.metrics import (
    Histogram,
    MetricsRegistry,
    format_snapshot,
    merge_snapshots,
)


def _registry(counts: dict, observations=()) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, value in counts.items():
        registry.counter(name).inc(value)
    for value in observations:
        registry.histogram("total_seconds").observe(value)
    return registry


class TestCountersAndGauges:
    def test_counters_sum(self) -> None:
        merged = merge_snapshots(
            [
                _registry({"hits": 3, "misses": 1}).snapshot(),
                _registry({"hits": 5}).snapshot(),
            ]
        )
        assert merged["counters"] == {"hits": 8, "misses": 1}

    def test_gauges_are_fleet_additive(self) -> None:
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("queue_depth").set(2)
        b.gauge("queue_depth").set(5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["queue_depth"] == 7.0

    def test_empty_and_falsy_snapshots_skipped(self) -> None:
        merged = merge_snapshots([{}, None, _registry({"a": 1}).snapshot()])
        assert merged["counters"] == {"a": 1}
        assert merge_snapshots([])["counters"] == {}

    def test_latest_cumulative_per_incarnation_never_double_counts(self):
        # The dispatcher's aggregation pattern: a worker heartbeats
        # cumulative snapshots; only the LATEST per (shard, generation)
        # is kept.  A crashed incarnation's final snapshot keeps
        # contributing alongside its replacement, which restarts at zero.
        latest: dict = {}
        worker = _registry({"served": 5})
        latest[(0, 1)] = worker.snapshot()
        worker.counter("served").inc(3)  # same incarnation, newer beat
        latest[(0, 1)] = worker.snapshot()
        respawned = _registry({"served": 2})  # generation 2, from zero
        latest[(0, 2)] = respawned.snapshot()
        merged = merge_snapshots(list(latest.values()))
        assert merged["counters"]["served"] == 8 + 2


class TestHistogramMerge:
    def test_same_bounds_merge_bucket_exact(self) -> None:
        a = Histogram("t", buckets=(0.1, 1.0, 10.0))
        b = Histogram("t", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5):
            a.observe(v)
        for v in (0.5, 5.0):
            b.observe(v)
        merged = merge_snapshots(
            [
                {"histograms": {"t": a.snapshot()}},
                {"histograms": {"t": b.snapshot()}},
            ]
        )["histograms"]["t"]
        assert merged["count"] == 5
        assert merged["max"] == 5.0
        assert merged["counts"] == [1, 3, 1, 0]
        # Quantiles re-interpolated from merged buckets, exactly as one
        # registry holding all five observations would estimate them.
        reference = Histogram("t", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 0.5, 5.0):
            reference.observe(v)
        assert merged["p50"] == pytest.approx(reference.quantile(0.5))
        assert merged["p99"] == pytest.approx(reference.quantile(0.99))
        # No estimate reaches past the largest observation, even when it
        # sits low in a wide bucket.
        assert merged["p50"] <= merged["p99"] <= merged["max"]

    def test_mismatched_bounds_fall_back_to_pessimistic_max(self) -> None:
        a = Histogram("t", buckets=(0.1, 1.0))
        b = Histogram("t", buckets=(0.2, 2.0))
        a.observe(0.05)
        b.observe(1.5)
        merged = merge_snapshots(
            [
                {"histograms": {"t": a.snapshot()}},
                {"histograms": {"t": b.snapshot()}},
            ]
        )["histograms"]["t"]
        assert merged["count"] == 2
        assert merged["p99"] == max(
            a.snapshot()["p99"], b.snapshot()["p99"]
        )
        assert "counts" not in merged

    def test_snapshot_exports_raw_buckets(self) -> None:
        h = Histogram("t", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(3.0)
        snap = h.snapshot()
        assert snap["bounds"] == [1.0, 2.0]
        assert snap["counts"] == [1, 0, 1]  # trailing +inf bucket


class TestFormatSnapshot:
    def test_renders_merged_snapshot(self) -> None:
        a = _registry({"served": 2}, observations=[0.01])
        b = _registry({"served": 1}, observations=[0.5])
        text = format_snapshot(merge_snapshots([a.snapshot(), b.snapshot()]))
        assert "served" in text and "total_seconds" in text
        assert "n=2" in text

    def test_report_round_trips_through_format_snapshot(self) -> None:
        registry = _registry({"served": 4}, observations=[0.1])
        assert registry.report() == format_snapshot(registry.snapshot())

    def test_empty_snapshot_renders_placeholder(self) -> None:
        assert format_snapshot({}) == "no metrics recorded"
