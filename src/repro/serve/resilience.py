"""Failure semantics for the serving engine: deadlines, retries, breakers.

SMAT's runtime already degrades gracefully *inside* one decision: when no
rule is confident it falls back to execute-and-measure (Figure 7), and the
plain CSR kernel is always correct for any input.  This module extends
that principle from "no confident rule" to "any runtime failure":

* :class:`Deadline` — an absolute monotonic expiry covering a request's
  whole life (queue wait + plan build + execute).  Expired requests are
  failed at dequeue with :class:`repro.errors.DeadlineExceededError`
  instead of burning worker time.
* :class:`RetryPolicy` — bounded retry with exponential backoff for
  *transient* execute failures (:class:`repro.errors.TransientError`);
  everything else fails immediately.
* :class:`CircuitBreaker` — per-fingerprint plan-build protection.  After
  ``threshold`` consecutive build failures the breaker opens and the
  engine stops re-tuning that matrix; every ``probe_interval``-th request
  while open becomes a half-open probe whose success restores tuned
  serving.  All transitions are request-count driven — no wall clock — so
  they replay deterministically under fault injection.

What the breaker degrades to is the reference plan
(:meth:`repro.tuner.plan.Plan.reference`): the row-loop CSR reference
kernel (``CSRMatrix.spmv(reference=True)``), the same oracle every tuned
kernel is validated against in
``tests/test_formats_reference_equivalence.py``.  It is always correct and
needs no tuning, no conversion, and no cache entry.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass

from repro.errors import TransientError


class Deadline:
    """An absolute expiry on the monotonic clock.

    Created at submit time, so the budget covers everything that happens
    to the request afterwards — queueing, plan resolution, retries and
    the kernel itself.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        if seconds <= 0.0:
            raise ValueError(f"deadline must be > 0 seconds, got {seconds}")
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff.

    ``backoff(attempt)`` is ``min(cap, base * 2**attempt)`` — attempt 0
    is the first retry.  Only :class:`~repro.errors.TransientError`
    failures are retried; deterministic failures (shape mismatches,
    misconfiguration) would fail identically every time.
    """

    max_retries: int = 2
    backoff_base: float = 0.005
    backoff_cap: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0.0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"backoff_cap ({self.backoff_cap}) must be >= "
                f"backoff_base ({self.backoff_base})"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))

    @staticmethod
    def is_retryable(exc: BaseException) -> bool:
        return isinstance(exc, TransientError)


class BreakerState(enum.Enum):
    """The classic three-state circuit breaker."""

    CLOSED = "closed"        # building plans normally
    OPEN = "open"            # builds suppressed, serving degraded
    HALF_OPEN = "half_open"  # one probe build in flight


class BuildTicket(enum.Enum):
    """What the breaker authorizes for one plan-resolution attempt."""

    BUILD = "build"      # normal tuned build (breaker closed)
    PROBE = "probe"      # half-open probe: one build to test recovery
    DEGRADE = "degrade"  # skip the build, serve the CSR reference plan


class CircuitBreaker:
    """Per-fingerprint build breaker, request-count driven.

    ``threshold`` consecutive build failures open the breaker.  While
    open, every ``probe_interval``-th :meth:`acquire` returns
    :attr:`BuildTicket.PROBE` (entering HALF_OPEN so concurrent callers
    keep degrading); the probe's :meth:`record_success` closes the
    breaker, its :meth:`record_failure` re-opens it.  No wall-clock state
    anywhere, so open→half-open→closed sequences replay identically under
    deterministic fault injection.
    """

    def __init__(self, threshold: int = 3, probe_interval: int = 8) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if probe_interval < 1:
            raise ValueError(
                f"probe_interval must be >= 1, got {probe_interval}"
            )
        self.threshold = threshold
        self.probe_interval = probe_interval
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._skipped = 0

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def acquire(self) -> BuildTicket:
        """Authorize (or refuse) one plan build."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return BuildTicket.BUILD
            if self._state is BreakerState.HALF_OPEN:
                return BuildTicket.DEGRADE  # a probe is already in flight
            self._skipped += 1
            if self._skipped >= self.probe_interval:
                self._skipped = 0
                self._state = BreakerState.HALF_OPEN
                return BuildTicket.PROBE
            return BuildTicket.DEGRADE

    def record_success(self) -> bool:
        """A build succeeded; True if this transition *closed* the breaker."""
        with self._lock:
            recovered = self._state is not BreakerState.CLOSED
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._skipped = 0
            return recovered

    def record_failure(self) -> bool:
        """A build failed; True if this transition *opened* the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.OPEN  # failed probe: re-open
                self._skipped = 0
                return False
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.threshold
            ):
                self._state = BreakerState.OPEN
                self._skipped = 0
                return True
            return False

    def describe(self) -> str:
        with self._lock:
            return (
                f"{self._state.value} "
                f"({self._consecutive_failures} consecutive failures)"
            )

