"""Serving metrics: counters, gauges and latency histograms.

Everything the engine does is counted here so load tests and operators can
see, not guess, what happened: plan-cache hit rate, fallback rate, queue
depth, per-stage latency.  The registry is deliberately dependency-free —
``snapshot()`` returns a plain nested dict (JSON-serializable), and
``report()`` renders a fixed-width text scoreboard in the style of the
repo's other ``describe()`` methods.

All instruments are thread-safe; workers update them concurrently.

Counter families the engine pre-registers (so dashboards and the
scoreboard always show them, fired or not): resilience
(``deadline_exceeded``/``breaker_*``/...), tier-2 refresh
(``structure_hits``/``plans_refreshed``/...), batched execution
(``spmm_*``), and the decision cascade (``cascade_cheap_hits``/
``cascade_full_hits``/``cascade_measure_decisions``/
``cascade_floor_decisions`` for the stage that produced each cold
decision, ``ruleset_swaps`` for live model hot-swaps observed while
serving).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

#: Default histogram bucket upper bounds, in seconds.  Log-spaced from 10µs
#: to 10s — wide enough for both the simulated backend (sub-ms) and real
#: wall-clock serving.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-5, 2))


class Counter:
    """A monotonically increasing count of events."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (queue depth, cache bytes)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket latency histogram with sum/count/quantile estimates.

    Buckets are cumulative-style upper bounds plus an implicit +inf bucket.
    Quantiles are estimated by linear interpolation within the winning
    bucket, capped at the observed maximum — coarse, but plenty for a
    serving scoreboard.
    """

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs sorted, nonempty buckets")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            counts, top = list(self._counts), self._max
        # Interpolate within the winning bucket, capped at the observed
        # maximum: uncapped, a decade-wide bucket interpolates up to its
        # upper bound, so a p99 could read several times the largest
        # observation.
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        seen = 0
        lower = 0.0
        for i, bucket_count in enumerate(counts):
            upper = min(self.buckets[i], top) if i < len(self.buckets) else top
            if seen + bucket_count >= target and bucket_count > 0:
                fraction = (target - seen) / bucket_count
                return lower + fraction * (upper - lower)
            seen += bucket_count
            lower = upper
        return top

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            count, total, top = self._count, self._sum, self._max
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "max": top,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """A named collection of instruments with one combined snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_BUCKETS
                )
            return self._histograms[name]

    def ensure(
        self,
        counters: Sequence[str] = (),
        gauges: Sequence[str] = (),
        histograms: Sequence[str] = (),
    ) -> "MetricsRegistry":
        """Pre-register instruments so they report at zero.

        Operators alert on counters like ``deadline_exceeded`` and
        ``degraded_requests``; an instrument that only materializes on its
        first increment is indistinguishable from one that was never
        wired.  The engine pre-registers its failure-path instruments so
        every scoreboard shows them, zero or not.
        """
        for name in counters:
            self.counter(name)
        for name in gauges:
            self.gauge(name)
        for name in histograms:
            self.histogram(name)
        return self

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """All instruments as one plain, JSON-serializable dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(histograms.items())
            },
        }

    def report(self) -> str:
        """Fixed-width text scoreboard of every instrument."""
        return format_snapshot(self.snapshot())


def format_snapshot(snap: Dict[str, Dict]) -> str:
    """Render one registry snapshot as the text scoreboard."""
    lines: List[str] = []
    if snap.get("counters"):
        lines.append("counters:")
        for name, value in snap["counters"].items():
            lines.append(f"  {name:28s} {int(value):>12d}")
    if snap.get("gauges"):
        lines.append("gauges:")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:28s} {value:>12g}")
    histograms = snap.get("histograms", {})
    latency = {n: h for n, h in histograms.items() if n.endswith("_seconds")}
    plain = {n: h for n, h in histograms.items() if n not in latency}
    if latency:
        lines.append("latency (seconds):")
        for name, h in latency.items():
            lines.append(
                f"  {name:28s} n={h['count']:<8d} "
                f"mean={_fmt(h['mean'])} p50={_fmt(h['p50'])} "
                f"p99={_fmt(h['p99'])} max={_fmt(h['max'])}"
            )
    if plain:
        lines.append("distributions:")
        for name, h in plain.items():
            lines.append(
                f"  {name:28s} n={h['count']:<8d} "
                f"mean={h['mean']:.2f} max={h['max']:g}"
            )
    return "\n".join(lines) if lines else "no metrics recorded"


def _fmt(seconds: float) -> str:
    """Human latency: picks µs/ms/s to keep three significant digits."""
    if seconds <= 0.0 or not math.isfinite(seconds):
        return f"{seconds:g}s"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3g}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3g}ms"
    return f"{seconds:.3g}s"
