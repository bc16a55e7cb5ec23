"""Pure helpers of the benchmark: percentiles, host-steal windows, spans
and error accounting.

Nothing here imports NumPy or ``repro``, so the helpers are tested on
their own (``PYTHONPATH=src python3 -m pytest e2ebench``).
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples above it; with
#: fewer, one outlier moves it and the run-to-run spread says nothing.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, q: int) -> int:
    """Samples ranked strictly above the ``q``-th percentile of ``count``."""
    return count - -(-count * q // 100)


def min_samples_for(q: int) -> int:
    """Smallest sample count whose ``q``-th percentile is reportable."""
    count = 1
    while samples_beyond(count, q) < MIN_SAMPLES_BEYOND:
        count += 1
    return count


def windowed_samples_for(q: int, windows: int) -> int:
    """Samples a phase cut into ``windows`` equal windows needs so that
    the steady half of them (see :func:`steady`) still supports p``q``."""
    kept = -(-windows // 2)
    return -(-min_samples_for(q) // kept) * windows


def percentile(
    samples: Sequence[float], q: int, min_beyond: int = MIN_SAMPLES_BEYOND
) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond it: by default p99 needs 1000 samples and p90 needs 100.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    count = len(samples)
    if count < 1 or samples_beyond(count, q) < min_beyond:
        raise ValueError(
            f"p{q} of {count} samples has fewer than "
            f"{min_beyond} samples beyond it"
        )
    ordered = sorted(samples)
    position = (count - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, count - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for no values (a layer the run never used)."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0


# ---------------------------------------------------------------------------
# Host steal and steady windows
# ---------------------------------------------------------------------------

def read_steal(path: str = "/proc/stat") -> Optional[Tuple[int, int]]:
    """(stolen, total) CPU ticks since boot; None where the host has none.

    Steal is time a virtual machine's CPUs were runnable but the
    hypervisor ran someone else: the one slowdown the benchmark can see
    that is neither the program's nor the benchmark's.
    """
    try:
        with open(path) as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)


class StealSampler:
    """Samples host steal from a background thread while a phase runs."""

    def __init__(self, interval: float = 0.05, read=read_steal) -> None:
        self.interval = interval
        self._read = read
        #: (perf_counter, stolen ticks, total ticks)
        self.samples: List[Tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="steal-sampler")

    def __enter__(self) -> "StealSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        reading = self._read()
        if reading is not None:
            self.samples.append((time.perf_counter(), *reading))

    def share(self, start: float, end: float) -> float:
        """Stolen share of all CPU ticks between the samples nearest to
        ``start`` and ``end``; 0.0 without samples."""
        if len(self.samples) < 2:
            return 0.0
        times = [sample[0] for sample in self.samples]
        first = max(0, bisect.bisect_right(times, start) - 1)
        last = min(len(times) - 1, max(first + 1, bisect.bisect_left(times, end)))
        stolen = self.samples[last][1] - self.samples[first][1]
        total = self.samples[last][2] - self.samples[first][2]
        return stolen / total if total > 0 else 0.0


@dataclass
class Window:
    """A stretch of a timed phase holding an equal share of its samples."""

    start: float
    end: float
    latencies: List[float] = field(default_factory=list)
    ops: int = 0
    steal: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def cut_windows(
    started: float,
    samples: Sequence[Tuple[float, float]],
    op_done: Sequence[float],
    count: int,
    steal: Optional[StealSampler] = None,
) -> List[Window]:
    """Cut a phase into ``count`` windows of equal latency-sample count.

    ``samples`` are ``(completion time, latency)`` pairs; ``op_done`` the
    completion time of every op, which the windows count for throughput.
    """
    ordered = sorted(samples)
    if len(ordered) < count:
        raise ValueError(f"{len(ordered)} samples cannot fill {count} windows")
    cuts = [started] + [
        ordered[len(ordered) * k // count - 1][0] for k in range(1, count)
    ] + [ordered[-1][0]]
    windows = [Window(cuts[k], cuts[k + 1]) for k in range(count)]
    for k in range(count):
        lo, hi = len(ordered) * k // count, len(ordered) * (k + 1) // count
        windows[k].latencies = [latency for _, latency in ordered[lo:hi]]
    ends = [window.end for window in windows]
    for done in op_done:
        windows[min(bisect.bisect_left(ends, done), count - 1)].ops += 1
    if steal is not None:
        for window in windows:
            window.steal = steal.share(window.start, window.end)
    return windows


def steady(windows: Sequence[Window]) -> List[Window]:
    """The windows whose host steal is at most the median window's.

    On a quiet host every window qualifies; while a neighbour's burst
    takes the CPUs away, the stolen half is set aside, so the end-to-end
    figures measure the program rather than the hypervisor.
    """
    median = statistics.median(window.steal for window in windows)
    return [window for window in windows if window.steal <= median]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One timed call: what ran, when, what caused it, which op it served."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class Recorder:
    """Collects spans in memory from any thread; written out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> int:
        """Reserve a span id, so children can name a parent still running."""
        with self._lock:
            return next(self._ids)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[int] = None,
        sid: Optional[int] = None,
    ) -> Span:
        """Record a span whose interval the caller already measured."""
        with self._lock:
            span = Span(
                next(self._ids) if sid is None else sid,
                name, start, end, parent, op,
            )
            self.spans.append(span)
        return span

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children (concurrent callees) are counted once.
    """
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.sid: self_time(span, children.get(span.sid, ()))
        for span in spans
    }


# ---------------------------------------------------------------------------
# Error accounting
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Ops attempted and how they went wrong; one per caller thread."""

    attempted: int = 0
    #: The call raised, or its future resolved to an exception.
    failed: int = 0
    #: The engine refused the op at submit (backpressure).
    refused: int = 0
    #: The op returned a result that differs from the reference.
    wrong: int = 0
    #: What went wrong, for the run's report (the first few failures).
    reasons: List[str] = field(default_factory=list)

    def note(self, reason: str) -> None:
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def errors(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def error_rate(self) -> float:
        """(failed + refused + wrong) / attempted."""
        if self.attempted < 1:
            raise ValueError("error_rate of a run that attempted no op")
        return self.errors / self.attempted

    @classmethod
    def merged(cls, tallies: Iterable["Tally"]) -> "Tally":
        total = cls()
        for tally in tallies:
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.refused += tally.refused
            total.wrong += tally.wrong
            for reason in tally.reasons:
                total.note(reason)
        return total
