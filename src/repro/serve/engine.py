"""The serving engine: concurrent tuned SpMV behind a bounded queue.

``ServingEngine`` turns the one-shot :meth:`repro.tuner.SMAT.spmv` call
into a persistent service.  The pipeline per request:

1. **validate + fingerprint** the matrix (operand shape is checked at
   submit so a bad vector fails one request, not a coalesced batch),
2. **enqueue** into a bounded submission queue — full queue means
   :class:`repro.errors.BackpressureError`, the engine sheds load rather
   than buffering unboundedly,
3. a **worker** pops the request and drains every queued request with the
   same fingerprint into one batch, so one plan lookup serves many vectors;
   requests whose end-to-end deadline already expired are failed here,
   before any plan work is spent on them,
4. **plan resolution** — plan-cache hit executes immediately (no feature
   extraction, no conversion: the amortization of Table 3); a tier-1 miss
   whose *structural digest* matches a resident plan refreshes that plan's
   value arrays in place of a full re-tune (the value-churn fast path —
   same structure, new values, no feature extraction and no rule walk);
   otherwise the miss runs the full Figure 7 decision once, converts once,
   and caches the plan.  Misses for the same structure (or fingerprint,
   with the tier-2 cache disabled) are single-flighted so concurrent first
   requests build the plan only once.  A build *failure* does not fail the
   batch: the engine degrades to the always-correct CSR reference plan, and
   a per-fingerprint circuit breaker stops re-tuning after repeated
   failures (half-open probes restore tuned serving once a build succeeds),
5. **execute** the chosen kernel — transient failures are retried with
   bounded exponential backoff — and resolve the caller's future.  When
   ≥ 2 batch members survive their deadline checks and ``max_batch_rhs``
   allows, the group may run as **one SpMM** (a single pass over the
   sparse operand): only on a plan with a native SpMM kernel, and only
   at widths where the plan's measured verdict says SpMM beat k calls of
   its serving kernel (:class:`~repro.tuner.plan.SpmmVerdicts`).
   Other groups run member by member.  A batched failure falls back to
   per-request SpMV so deadlines, retries and faults keep per-request
   semantics.  ``batch_window`` lets a worker linger at dequeue to absorb
   a same-fingerprint burst first.

Future resolution is always routed through the ``_try_*`` helpers: a
caller can cancel its future at any instant, and an unguarded
``set_result``/``set_exception`` racing that cancel raises
``InvalidStateError`` inside the worker thread, silently shrinking
serving capacity.  The helpers swallow exactly that race, nothing else.

The tuner is anything satisfying :class:`~repro.tuner.plan.Tuner`:
a plain :class:`~repro.tuner.SMAT` or an :class:`~repro.tuner.OnlineSmat`,
with which fallback measurements recorded while serving retrain the model
safely under its internal lock.  Every plan the engine serves — cached,
refreshed, delta-migrated or degraded — is one
:class:`~repro.tuner.plan.Plan`.

Every stage is metered (see :mod:`repro.serve.metrics`); the failure-path
instruments are pre-registered so they are observable at zero.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, InvalidStateError
from dataclasses import dataclass, replace
from typing import (
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    ServeError,
)
from repro.features.incremental import DeltaFeatures
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta, apply_delta, patch_operand
from repro.serve.faults import FaultPlan
from repro.serve.fingerprint import Fingerprint
from repro.serve.fingerprint import fingerprint as _fingerprint
from repro.serve.metrics import MetricsRegistry
from repro.serve.plancache import PlanCache
from repro.serve.resilience import (
    BreakerState,
    BuildTicket,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.tuner.plan import Plan, Tuner
from repro.tuner.runtime import Decision, cascade_select, specialize_kernel
from repro.types import FormatName

#: Counters pre-registered on every engine so the scoreboard always shows
#: the failure paths, fired or not.
_RESILIENCE_COUNTERS = (
    "deadline_exceeded",
    "degraded_requests",
    "plan_build_failures",
    "retries",
    "requests_failed",
    "breaker_opened",
    "breaker_probes",
    "breaker_recovered",
    "requests_invalid",
    "worker_errors",
)

#: Tier-2 instruments, pre-registered for the same reason: a value-churn
#: workload that never refreshes should read as zero, not as unwired.
_REFRESH_COUNTERS = (
    "structure_hits",
    "plans_refreshed",
    "plan_refresh_failures",
)

#: Batched-execution instruments: a fan-in workload that never coalesces
#: into an SpMM (window 0, or max_batch_rhs 1) must read as zero.
#: ``spmm_batches_total`` counts groups stacked into one SpMM and
#: ``spmm_groups_unstacked`` groups served member by member (no native
#: SpMM kernel, a degraded plan, or a verdict for the serving kernel).
_SPMM_COUNTERS = (
    "spmm_batches_total",
    "spmm_requests_batched",
    "spmm_groups_unstacked",
    "spmm_fallbacks",
)

#: Decision-cascade + hot-swap instruments.  The cascade_* counters
#: record which stage produced each cold decision; ruleset_swaps counts
#: model epochs observed while serving (an OnlineSmat retrain hot-swapped
#: under us).
_CASCADE_COUNTERS = (
    "cascade_cheap_hits",
    "cascade_full_hits",
    "cascade_measure_decisions",
    "cascade_floor_decisions",
    "ruleset_swaps",
)

_CASCADE_STAGE_COUNTER = {
    "cheap": "cascade_cheap_hits",
    "full": "cascade_full_hits",
    "measure": "cascade_measure_decisions",
    "floor": "cascade_floor_decisions",
}

#: Kernel-backend instruments.  ``codegen_kernels`` counts plans serving a
#: compiled specialized kernel; ``codegen_kept_generic`` counts builds
#: where the beat-or-keep audit kept the registry kernel;
#: ``codegen_fallbacks`` counts specialization *failures* (including
#: injected ``codegen.compile`` faults) absorbed without degrading the
#: plan — the chaos test gates on failures never reaching the breaker.
_CODEGEN_COUNTERS = (
    "codegen_kernels",
    "codegen_kept_generic",
    "codegen_fallbacks",
)

#: Structure-churn instruments.  ``deltas_applied`` counts every
#: :meth:`ServingEngine.apply_structure_delta`; the three policy counters
#: record how each delta's plan was migrated — ``delta_patches`` (the
#: converted operand was edited in place), ``delta_refreshes`` (the old
#: format won the re-decision but its geometry changed, so the operand
#: was rebuilt without re-tuning) and ``delta_retunes`` (full decision).
#: The churn smoke test gates on patches+refreshes moving.
_DELTA_COUNTERS = (
    "deltas_applied",
    "delta_patches",
    "delta_refreshes",
    "delta_retunes",
)

#: Structure-delta migration policy: a delta whose structural edit count
#: (entries appearing or vanishing) stays within this fraction of the
#: pre-delta nnz may keep the old plan — patched or rebuilt in the old
#: format — provided a cascade-bounded re-decision confirms that format
#: still wins on the mutated structure.  Larger deltas (or a flipped
#: re-decision) always re-tune from scratch.
DELTA_PATCH_MAX_RATIO = 0.25


@dataclass(frozen=True)
class ServeConfig:
    """Sizing and policy of one serving engine."""

    #: Worker threads executing SpMV requests.
    workers: int = 4
    #: Bounded submission-queue capacity (the backpressure point).
    queue_capacity: int = 256
    #: Max requests coalesced into one batch per plan lookup.
    max_batch: int = 32
    #: Seconds a worker lingers at dequeue collecting more requests with
    #: the head's fingerprint before processing the batch (0 = dequeue
    #: immediately, the pre-batching behaviour).  A small window turns
    #: same-fingerprint fan-in into multi-RHS SpMM batches.
    batch_window: float = 0.0
    #: Max same-fingerprint requests stacked into one SpMM RHS block.
    #: Defaults to 1 (never batch execution; coalescing still amortises
    #: the plan lookup): a multi-RHS pass reassociates float summation,
    #: so results can differ from sequential serving in the low-order
    #: bits.  Opt in where fan-in throughput matters more than run-to-run
    #: bit identity (exact-arithmetic workloads lose nothing either way).
    #: Even then a group is stacked only where the plan's measured
    #: verdict says SpMM wins at its width.
    max_batch_rhs: int = 1
    #: Plan-cache entry cap.
    cache_entries: int = 128
    #: Default end-to-end deadline per request (None = none); covers
    #: queue wait + plan resolution + execution.
    default_deadline: Optional[float] = None
    #: Retries for *transient* execute failures (0 = fail on first error).
    max_retries: int = 2
    #: First retry backoff in seconds (doubles per attempt).
    backoff_base: float = 0.005
    #: Backoff ceiling in seconds.
    backoff_cap: float = 0.05
    #: Consecutive plan-build failures that open a fingerprint's breaker.
    breaker_threshold: int = 3
    #: While open, every Nth request half-opens the breaker for one probe.
    breaker_probe_interval: int = 8
    #: Tier-2 structure-keyed plan reuse: a miss whose structural digest
    #: matches a resident plan refreshes that plan's values instead of
    #: re-tuning.  Disable to force every distinct value set through the
    #: full Figure 7 decision (the pre-two-tier behaviour).
    structure_cache: bool = True
    #: Kernel backend applied to cold plan builds and delta-migrated
    #: plans (``repro.kernels.backends``).  ``codegen`` compiles a per-matrix
    #: specialized kernel into the plan when it beats the registry kernel;
    #: any compile failure silently keeps the generic kernel.
    kernel_backend: str = "generic"

    def __post_init__(self) -> None:
        from repro.kernels.backends import backend_names

        if self.kernel_backend not in backend_names():
            raise ValueError(
                f"kernel_backend must be one of {backend_names()}, "
                f"got {self.kernel_backend!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window < 0.0:
            raise ValueError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        if self.max_batch_rhs < 1:
            raise ValueError(
                f"max_batch_rhs must be >= 1, got {self.max_batch_rhs}"
            )
        if self.cache_entries < 1:
            raise ValueError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0.0:
            raise ValueError(
                f"default_deadline must be > 0 or None, "
                f"got {self.default_deadline}"
            )
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
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_probe_interval < 1:
            raise ValueError(
                f"breaker_probe_interval must be >= 1, "
                f"got {self.breaker_probe_interval}"
            )


@dataclass
class ServeResult:
    """What the engine hands back for one request."""

    y: np.ndarray
    fingerprint: Fingerprint
    format_name: FormatName
    kernel_name: str
    cache_hit: bool
    used_fallback: bool
    #: Seconds spent waiting in the submission queue.
    queued_seconds: float
    #: Seconds resolving the plan (≈0 on a cache hit).
    plan_seconds: float
    #: Seconds inside the SpMV kernel.
    execute_seconds: float
    #: True when the plan build failed and the CSR reference plan served
    #: this request instead (see ``repro.serve.resilience``).
    degraded: bool = False
    #: Transient execute failures retried before this result.
    retries: int = 0
    #: True when the plan came from the tier-2 structure cache: a resident
    #: plan with the same sparsity structure had its values refreshed in
    #: place of a full re-tune.
    refreshed: bool = False
    #: RHS columns of the SpMM this request rode in (1 = served as a
    #: plain SpMV).  ``execute_seconds`` is the batch's kernel time
    #: divided evenly across its members.
    batch_size: int = 1

    @property
    def total_seconds(self) -> float:
        return self.queued_seconds + self.plan_seconds + self.execute_seconds


@dataclass(frozen=True)
class DeltaOutcome:
    """What :meth:`ServingEngine.apply_structure_delta` hands back.

    ``matrix`` is the post-delta CSR matrix the caller must submit from
    now on (the pre-delta object — and its fingerprint — is dead: its
    plan has been invalidated and can never be hit again).  It is
    frozen: any write to its arrays raises.  ``policy``
    records how the plan migrated: ``"patch"`` (operand edited in
    place), ``"refresh"`` (same format, operand rebuilt without
    re-tuning) or ``"retune"`` (full decision).
    """

    matrix: CSRMatrix
    fingerprint: Fingerprint
    old_fingerprint: Fingerprint
    policy: str
    old_format: Optional[FormatName]
    new_format: FormatName
    #: Structural edits (entries appearing/vanishing) over pre-delta nnz.
    delta_ratio: float
    #: Which cascade stage confirmed (or flipped) the format, when a
    #: re-decision ran: ``"delta"`` (maintained-features walk),
    #: ``"cheap"``/``"full"`` (cascade probe), or None (no re-decision).
    redecision_stage: Optional[str]
    seconds: float


# ---------------------------------------------------------------------------
# Safe future resolution.
#
# A future can be cancelled by its caller between any state check and the
# matching set_* call; concurrent.futures then raises InvalidStateError in
# the *worker* thread.  Pre-fix, that either killed the worker (batch error
# path) or blew up stop(drain=False).  These helpers swallow exactly the
# lost-the-race case and report whether the resolution landed.
# ---------------------------------------------------------------------------

def _try_mark_running(future: "Future") -> bool:
    """True if the future transitioned to RUNNING (safe to resolve)."""
    try:
        return future.set_running_or_notify_cancel()
    except InvalidStateError:
        return False


def _try_set_result(future: "Future", result) -> bool:
    try:
        future.set_result(result)
        return True
    except InvalidStateError:
        return False


def _try_set_exception(future: "Future", exc: BaseException) -> bool:
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return False


class _Request:
    __slots__ = (
        "key",
        "matrix",
        "x",
        "future",
        "deadline",
        "enqueued_at",
        "trace_root",
        "trace_queue",
    )

    def __init__(
        self,
        key: Fingerprint,
        matrix: CSRMatrix,
        x: np.ndarray,
        future: "Future[ServeResult]",
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.key = key
        self.matrix = matrix
        self.x = x
        self.future = future
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        # Tracing (None unless a tracer is installed at submit): the
        # request's root span and its queue-wait child.  Started on the
        # client thread, finished on a worker — the explicit-parent
        # stitching repro.obs exists for.
        self.trace_root: Optional[obs.Span] = None
        self.trace_queue: Optional[obs.Span] = None


class _BuildLock:
    """A single-flight lock plus the number of threads holding a reference.

    The refcount is the fix for the pop-while-held race: the old code
    popped the lock from the registry as soon as *one* holder released,
    so a late arriver minted a fresh lock, and a build that left no plan
    in the cache (a failed one) ran again concurrently with the next
    waiter's.  Now the entry leaves the registry only when
    the last referent releases, so every concurrent resolver for one
    fingerprint serializes on the same lock object.
    """

    __slots__ = ("lock", "refs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0


@dataclass
class _Resolution:
    """Outcome of one plan resolution, tuned or degraded."""

    plan: Plan
    cache_hit: bool
    seconds: float
    #: Plan came from a tier-2 structure hit (values refreshed, no tune).
    refreshed: bool = False


def _own_operand(plan: Plan, matrix: CSRMatrix) -> Plan:
    """``plan``, run on ``matrix`` itself when the plan is CSR.

    Conversion to CSR is the identity, so a CSR plan's operand is the
    matrix its first caller submitted, and that caller may edit it in
    place after the plan was cached under its old key.  A CSR plan
    therefore runs on the matrix of the request it serves, whose arrays
    hashed to the key the plan was found under.  Other formats own their
    converted arrays.
    """
    if plan.format_name is FormatName.CSR and plan.matrix is not matrix:
        return plan.refreshed(matrix)
    return plan


class _SubmissionQueue:
    """Bounded FIFO with same-fingerprint batch extraction.

    ``take_batch`` pops the head and then *removes* (not merely reads)
    every queued request sharing the head's fingerprint, preserving FIFO
    order among the rest — the coalescing that lets one plan lookup serve
    many vectors.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._items: Deque[_Request] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    def put(self, request: _Request, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            while len(self._items) >= self._capacity and not self._closed:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise BackpressureError(
                            f"submission queue full "
                            f"({self._capacity} requests) for {timeout}s"
                        )
                self._not_full.wait(remaining)
            if self._closed:
                raise ServeError("engine is shutting down")
            self._items.append(request)
            self._not_empty.notify()

    def put_many(
        self, requests: Sequence[_Request], timeout: Optional[float]
    ) -> None:
        """Enqueue ``requests`` atomically (all visible in one dequeue).

        ``submit_batch`` needs this: a worker's ``take_batch`` must see
        the whole same-fingerprint burst at once, even with a zero batch
        window, so it coalesces into one SpMM instead of trickling
        through as singles.
        """
        n = len(requests)
        if n == 0:
            return
        if n > self._capacity:
            raise BackpressureError(
                f"batch of {n} exceeds queue capacity ({self._capacity})"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            while (
                len(self._items) + n > self._capacity and not self._closed
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise BackpressureError(
                            f"submission queue lacks space for {n} "
                            f"requests ({self._capacity} capacity) "
                            f"for {timeout}s"
                        )
                self._not_full.wait(remaining)
            if self._closed:
                raise ServeError("engine is shutting down")
            self._items.extend(requests)
            self._not_empty.notify(n)

    def take_batch(
        self, max_batch: int, window: float = 0.0
    ) -> Optional[List[_Request]]:
        """Next batch of same-fingerprint requests; None when drained+closed.

        With ``window > 0`` the caller lingers after the initial
        extraction, absorbing same-fingerprint arrivals until the window
        elapses, the batch fills, or the queue closes.  While lingering,
        queued *other*-fingerprint requests re-notify the condition so an
        idle sibling worker picks them up instead of waiting behind this
        batch's window.
        """
        with self._not_empty:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return None  # closed and drained
            head = self._items.popleft()
            batch = [head]
            self._extract_same_key(head.key, batch, max_batch)
            if window > 0.0:
                expires = time.monotonic() + window
                while len(batch) < max_batch and not self._closed:
                    remaining = expires - time.monotonic()
                    if remaining <= 0.0:
                        break
                    if self._items:
                        # Pass the baton: someone else should serve the
                        # other-fingerprint backlog while we linger.
                        self._not_empty.notify()
                    self._not_empty.wait(remaining)
                    self._extract_same_key(head.key, batch, max_batch)
            self._not_full.notify(len(batch))
            return batch

    def _extract_same_key(
        self, key: Fingerprint, batch: List[_Request], max_batch: int
    ) -> None:
        """Move queued requests matching ``key`` into ``batch`` (FIFO-
        preserving for the rest).  Caller holds the lock."""
        if len(batch) >= max_batch or not self._items:
            return
        keep: List[_Request] = []
        taken = False
        for request in self._items:
            if request.key == key and len(batch) < max_batch:
                batch.append(request)
                taken = True
            else:
                keep.append(request)
        if taken:
            self._items = deque(keep)

    def drain(self) -> List[_Request]:
        with self._lock:
            remaining = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
            return remaining

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class ServingEngine:
    """A persistent, thread-safe SpMV service over one tuner.

    >>> with ServingEngine(smat) as engine:
    ...     y = engine.spmv(matrix, x).y            # synchronous
    ...     future = engine.submit(matrix, x, deadline=0.5)
    ...     print(engine.metrics.report())

    ``faults`` accepts a :class:`~repro.serve.faults.FaultPlan` that
    wraps the decide/refresh/execute/spmm seams for deterministic
    chaos replay; production engines leave it None.
    """

    def __init__(
        self,
        tuner: Tuner,
        config: ServeConfig = ServeConfig(),
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if not hasattr(tuner, "decide"):
            raise ServeError(
                f"tuner must expose decide(); got {type(tuner).__name__}"
            )
        self.tuner = tuner
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.metrics.ensure(counters=_RESILIENCE_COUNTERS)
        self.metrics.ensure(
            counters=_REFRESH_COUNTERS,
            histograms=("plan_refresh_seconds",),
        )
        self.metrics.ensure(counters=_SPMM_COUNTERS)
        self.metrics.ensure(counters=_CASCADE_COUNTERS)
        self.metrics.ensure(counters=_CODEGEN_COUNTERS)
        self.metrics.ensure(
            counters=_DELTA_COUNTERS,
            histograms=("delta_apply_seconds",),
        )
        self.cache = PlanCache(max_entries=config.cache_entries)
        # The last tuner model epoch observed (for counting live ruleset
        # hot-swaps).
        self._last_model_epoch: int = tuner.model_epoch
        self._epoch_guard = threading.Lock()
        self.faults = faults
        self._sleep = faults.sleep if faults is not None else time.sleep
        self._retry = RetryPolicy(
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
        )
        self._queue = _SubmissionQueue(config.queue_capacity)
        self._workers: List[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._stopped = False
        # Single-flight plan builds, keyed by the structure key when the
        # tier-2 cache is on (concurrent first requests for the *same
        # structure* then serialize too: one builds, the rest refresh)
        # and by the exact fingerprint otherwise.
        self._build_locks: Dict[Hashable, _BuildLock] = {}
        self._build_locks_guard = threading.Lock()
        # Per-fingerprint plan-build circuit breakers.
        self._breakers: Dict[Fingerprint, CircuitBreaker] = {}
        self._breakers_guard = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingEngine":
        with self._state_lock:
            if self._stopped:
                raise ServeError("engine cannot be restarted after stop()")
            if self._started:
                raise ServeError("engine already started")
            self._started = True
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"smat-serve-{i}",
                    daemon=True,
                )
                thread.start()
                self._workers.append(thread)
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` the backlog is served first, without
        it pending requests fail with :class:`ServeError`."""
        with self._state_lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        if not drain:
            for request in self._queue.drain():
                # The caller may have cancelled this future already —
                # _try_set_exception absorbs that instead of raising
                # InvalidStateError out of stop().
                exc = ServeError("engine stopped before request ran")
                self._end_trace(request, error=exc)
                _try_set_exception(request.future, exc)
        self._queue.close()
        for thread in self._workers:
            thread.join()
        self._update_gauges()

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        with self._state_lock:
            return self._started and not self._stopped

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> "Future[ServeResult]":
        """Enqueue one SpMV; returns a future resolving to a ServeResult.

        ``timeout`` bounds the wait for queue space (None waits as long
        as it takes); exhausting it raises :class:`BackpressureError`.
        ``deadline`` (defaults to the config's ``default_deadline``)
        bounds the request end to end — queue wait, plan resolution and
        execution; an expired request fails with
        :class:`DeadlineExceededError` without burning worker time on
        plan work.
        """
        if not self.running:
            raise ServeError("engine is not running (call start())")
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != matrix.n_cols:
            # Validated here so a bad vector fails *this* request with a
            # clear error instead of failing a whole coalesced batch
            # inside the kernel.
            self.metrics.counter("requests_invalid").inc()
            raise ValueError(
                f"operand vector has shape {x.shape}; the matrix needs "
                f"a 1-D vector of length {matrix.n_cols}"
            )
        effective_deadline = (
            deadline if deadline is not None else self.config.default_deadline
        )
        key = _fingerprint(matrix)
        future: "Future[ServeResult]" = Future()
        request = _Request(
            key,
            matrix,
            x,
            future,
            Deadline.after(effective_deadline)
            if effective_deadline is not None
            else None,
        )
        tracer = obs.get_tracer()
        if tracer is not None:
            request.trace_root = tracer.begin(
                "serve.request",
                parent=None,
                fingerprint=str(key),
                rows=int(matrix.n_rows),
                cols=int(matrix.n_cols),
                nnz=int(matrix.nnz),
            )
            request.trace_queue = tracer.begin(
                "serve.queue", parent=request.trace_root
            )
        try:
            self._queue.put(request, timeout)
        except BaseException as exc:
            if isinstance(exc, BackpressureError):
                self.metrics.counter("requests_rejected").inc()
            self._end_trace(request, error=exc)
            raise
        self.metrics.counter("requests_submitted").inc()
        self.metrics.gauge("queue_depth").set(len(self._queue))
        return future

    def submit_batch(
        self,
        matrix: CSRMatrix,
        xs: Sequence[np.ndarray],
        timeout: Optional[float] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> List["Future[ServeResult]"]:
        """Enqueue a same-matrix burst atomically; one future per vector.

        The requests land in the submission queue in one step, so a
        worker's ``take_batch`` sees the whole burst at once and (when
        ``max_batch_rhs`` allows) executes it as a single SpMM — even
        with ``batch_window == 0``.  ``deadlines`` gives each member its
        own end-to-end budget (None entries fall back to the config
        default); deadlines, retries and failures stay per-request inside
        the batch.
        """
        if not self.running:
            raise ServeError("engine is not running (call start())")
        if deadlines is not None and len(deadlines) != len(xs):
            raise ValueError(
                f"deadlines has {len(deadlines)} entries for "
                f"{len(xs)} vectors"
            )
        if not xs:
            return []
        key = _fingerprint(matrix)
        requests: List[_Request] = []
        tracer = obs.get_tracer()
        for i, x in enumerate(xs):
            x = np.asarray(x)
            if x.ndim != 1 or x.shape[0] != matrix.n_cols:
                self.metrics.counter("requests_invalid").inc()
                raise ValueError(
                    f"operand vector {i} has shape {x.shape}; the matrix "
                    f"needs a 1-D vector of length {matrix.n_cols}"
                )
            effective_deadline = (
                deadlines[i]
                if deadlines is not None and deadlines[i] is not None
                else self.config.default_deadline
            )
            request = _Request(
                key,
                matrix,
                x,
                Future(),
                Deadline.after(effective_deadline)
                if effective_deadline is not None
                else None,
            )
            if tracer is not None:
                request.trace_root = tracer.begin(
                    "serve.request",
                    parent=None,
                    fingerprint=str(key),
                    rows=int(matrix.n_rows),
                    cols=int(matrix.n_cols),
                    nnz=int(matrix.nnz),
                )
                request.trace_queue = tracer.begin(
                    "serve.queue", parent=request.trace_root
                )
            requests.append(request)
        try:
            self._queue.put_many(requests, timeout)
        except BaseException as exc:
            if isinstance(exc, BackpressureError):
                self.metrics.counter("requests_rejected").inc(len(requests))
            for request in requests:
                self._end_trace(request, error=exc)
            raise
        self.metrics.counter("requests_submitted").inc(len(requests))
        self.metrics.gauge("queue_depth").set(len(self._queue))
        return [request.future for request in requests]

    def spmv(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> ServeResult:
        """Synchronous convenience wrapper over :meth:`submit`."""
        return self.submit(
            matrix, x, timeout=timeout, deadline=deadline
        ).result()

    def spmv_many(
        self,
        requests: Iterable[Tuple[CSRMatrix, np.ndarray]],
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> List[ServeResult]:
        """Submit a sequence of (matrix, x) pairs; wait for all results.

        If a mid-sequence submit fails (backpressure, bad operand), the
        already-submitted futures are cancelled — or awaited, when a
        worker got there first — before the error is re-raised, so no
        orphaned work keeps running behind the caller's back.
        """
        futures: List["Future[ServeResult]"] = []
        try:
            for matrix, x in requests:
                futures.append(
                    self.submit(matrix, x, timeout=timeout, deadline=deadline)
                )
        except BaseException:
            for future in futures:
                future.cancel()
            for future in futures:
                if future.cancelled():
                    continue
                try:
                    future.exception()  # waits for in-flight completion
                except CancelledError:
                    pass
            raise
        return [f.result() for f in futures]

    def invalidate(self, matrix: CSRMatrix) -> bool:
        """Drop the cached plan for ``matrix``'s current content.

        An in-place edit needs no call: the edited matrix hashes to a new
        key, which never reaches the old plan, and for the same reason a
        call made after the edit does not drop it.  Use this for
        staleness the key cannot see, such as a retrained model.
        """
        invalidated = self.cache.invalidate(_fingerprint(matrix))
        if invalidated:
            self.metrics.counter("plans_invalidated").inc()
            self._update_gauges()
        return invalidated

    # ------------------------------------------------------------------
    # Structure churn
    # ------------------------------------------------------------------
    def apply_structure_delta(
        self,
        matrix: CSRMatrix,
        delta: StructureDelta,
        features: Optional[DeltaFeatures] = None,
    ) -> DeltaOutcome:
        """Mutate a served structure and migrate its plan.

        The pre-delta fingerprint (value *and* structure key) is retired
        unconditionally — both cache tiers mint fresh keys for the
        post-delta matrix, so a mutated structure can never hit its
        stale plan.  The resident plan then migrates by policy:

        * **patch** — the delta is small (``structural edits / nnz ≤
          DELTA_PATCH_MAX_RATIO``) and a cascade-bounded
          re-decision (the maintained-feature walk when ``features`` is
          supplied, the cheap interval walk otherwise) proves the old
          format still wins → the converted operand is edited in place
          where the format's geometry is unchanged;
        * **refresh** — same proof, but the geometry moved (ELL width,
          DIA offset set) or the format has no in-place patcher → the
          operand is rebuilt from the new CSR without re-tuning;
        * **retune** — big delta, flipped decision, no resident plan, or
          a failed patch → the full Figure 7 decision runs.

        Returns the post-delta matrix (the caller must submit with it
        from now on) plus what happened.  That matrix is frozen
        (:meth:`CSRMatrix.frozen`): its arrays are read-only, so its
        fingerprint is computed once, here; edit a copy.  ``features``,
        when given, is advanced in place so the caller's maintenance
        stays attached.
        """
        started = time.perf_counter()
        old_key = _fingerprint(matrix)
        with obs.span("serve.delta", fingerprint=str(old_key)):
            new_csr, effect = apply_delta(matrix, delta)
            # Frozen, the new structure is hashed once here: its reads
            # and the next delta's retirement of this key reuse it, and a
            # COO plan shares its arrays.
            new_csr = new_csr.frozen()
            if features is not None:
                features.apply(effect)
            new_key = _fingerprint(new_csr)
            old_plan = self.cache.get(old_key)
            if self.cache.invalidate(old_key):
                self.metrics.counter("plans_invalidated").inc()
            self.metrics.counter("deltas_applied").inc()
            ratio = effect.structural_size / max(matrix.nnz, 1)
            old_format = old_plan.format_name if old_plan is not None else None
            plan = None
            policy = "retune"
            stage: Optional[str] = None
            if old_plan is not None and ratio <= DELTA_PATCH_MAX_RATIO:
                redecision = self._delta_redecision(new_csr, features)
                if redecision is not None:
                    fmt, stage = redecision
                    if fmt is old_plan.format_name:
                        try:
                            result = patch_operand(
                                old_plan.matrix, new_csr, effect
                            )
                        except Exception:
                            result = None  # patch failed → full retune
                        if result is not None:
                            policy = (
                                "patch"
                                if result.mode == "patched"
                                else "refresh"
                            )
                            # A compiled kernel folds the old structure
                            # (DIA offsets, ELL width, row buckets), so it
                            # is dropped and the migrated operand is
                            # re-specialized like a cold build.
                            plan = self._bind(
                                replace(
                                    old_plan.decision,
                                    matrix=result.matrix,
                                    compiled_kernel=None,
                                    codegen_units=0.0,
                                )
                            )
            if plan is None:
                policy = "retune"
                plan = self._build_plan(new_csr)
            self.metrics.counter(
                {
                    "patch": "delta_patches",
                    "refresh": "delta_refreshes",
                    "retune": "delta_retunes",
                }[policy]
            ).inc()
            self.cache.put(new_key, plan)
            self.metrics.counter("plans_cached").inc()
            seconds = time.perf_counter() - started
            self.metrics.histogram("delta_apply_seconds").observe(seconds)
            self._update_gauges()
            return DeltaOutcome(
                matrix=new_csr,
                fingerprint=new_key,
                old_fingerprint=old_key,
                policy=policy,
                old_format=old_format,
                new_format=plan.format_name,
                delta_ratio=float(ratio),
                redecision_stage=stage,
                seconds=seconds,
            )

    def _delta_redecision(
        self, new_csr: CSRMatrix, features: Optional[DeltaFeatures]
    ) -> Optional[Tuple[FormatName, str]]:
        """Cheapest available proof of the post-delta format choice.

        With maintained features the rule walk runs on a fully-seeded
        :class:`LazyFeatures` — zero extraction units, stage ``"delta"``.
        Without them the cascade walks cheap interval bounds, escalating
        only when unresolved.  A tuner whose model cannot walk (none, or
        a failing one) proves nothing → None, which the caller treats as
        "retune".
        """
        try:
            selection = cascade_select(
                new_csr, self.tuner.model, self.tuner.config, features=features
            )
        except Exception:
            return None
        return selection.format_name, selection.stage

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.take_batch(
                self.config.max_batch, self.config.batch_window
            )
            if batch is None:
                return
            self.metrics.gauge("queue_depth").set(len(self._queue))
            if len(batch) > 1:
                self.metrics.counter("requests_batched").inc(len(batch) - 1)
            self.metrics.histogram(
                "batch_size", buckets=(1, 2, 4, 8, 16, 32, 64)
            ).observe(len(batch))
            try:
                self._process_batch(batch)
            except Exception as exc:
                # A worker must never die: whatever slipped through the
                # per-stage handling fails the batch, not the thread.
                self.metrics.counter("worker_errors").inc()
                for request in batch:
                    self._end_trace(request, error=exc)
                    _try_set_exception(request.future, exc)

    def _process_batch(self, batch: Sequence[_Request]) -> None:
        # Deadline check at dequeue: requests that already blew their
        # end-to-end budget are failed fast, before any plan work.
        live: List[_Request] = []
        for request in batch:
            self._end_queue_span(request)
            if request.deadline is not None and request.deadline.expired():
                self.metrics.counter("deadline_exceeded").inc()
                self.metrics.counter("requests_failed").inc()
                exc: Exception = DeadlineExceededError(
                    f"deadline expired while queued ({request.key})"
                )
                self._end_trace(request, error=exc)
                _try_set_exception(request.future, exc)
            else:
                live.append(request)
        if not live:
            return
        head = live[0]
        dequeued_at = time.perf_counter()
        tracer = obs.get_tracer()
        plan_ctx = (
            tracer.span("serve.plan", parent=head.trace_root)
            if tracer is not None and head.trace_root is not None
            else obs.NULL_SPAN
        )
        try:
            # The plan span lives on the head request's tree (followers
            # reuse the resolution without paying for it); while it is
            # the worker's current span, the tune/convert/feature spans
            # the build emits nest under it automatically.
            with plan_ctx as plan_span:
                resolution = self._resolve_plan(
                    head.key, head.matrix, head.deadline
                )
                if plan_span is not None:
                    plan_span.attrs.update(
                        cache_hit=resolution.cache_hit,
                        degraded=resolution.plan.degraded,
                        refreshed=resolution.refreshed,
                        format=resolution.plan.format_name.value,
                    )
        except Exception as exc:  # degraded path failed too: fail the batch
            self.metrics.counter("requests_failed").inc(len(live))
            for request in live:
                self._end_trace(request, error=exc)
                _try_set_exception(request.future, exc)
            return
        # Mark each future RUNNING exactly once — set_running_or_notify_
        # cancel raises on a second call, so the SpMM fallback path below
        # must never re-mark a request.
        ready: List[Tuple[int, _Request]] = []
        for i, request in enumerate(live):
            if not _try_mark_running(request.future):
                self._end_trace(request, cancelled=True)
                continue  # cancelled while queued
            ready.append((i, request))
        max_rhs = self.config.max_batch_rhs
        pos = 0
        while pos < len(ready):
            group = ready[pos : pos + max_rhs]
            pos += len(group)
            if len(group) >= 2:
                self._execute_spmm_group(resolution, group, dequeued_at)
            else:
                index, request = group[0]
                self._serve_one(resolution, index, request, dequeued_at)

    def _serve_one(
        self,
        resolution: _Resolution,
        index: int,
        request: _Request,
        dequeued_at: float,
    ) -> bool:
        """Serve one already-RUNNING request as a plain SpMV; True when
        it was served, False when it failed (already resolved)."""
        if self._fail_if_expired(request):
            return False
        queued = dequeued_at - request.enqueued_at
        outcome = self._execute_with_retry(resolution, request)
        if outcome is None:
            return False  # failed; already metered, resolved and traced
        y, execute_seconds, retries = outcome
        self._finish_request(
            resolution,
            index,
            request,
            queued,
            y,
            execute_seconds,
            retries,
            batch_size=1,
        )
        return True

    def _serve_each(
        self,
        resolution: _Resolution,
        members: Sequence[Tuple[int, _Request]],
        dequeued_at: float,
    ) -> int:
        """Serve members one SpMV at a time; returns how many were served."""
        return sum(
            self._serve_one(resolution, index, request, dequeued_at)
            for index, request in members
        )

    def _execute_spmm_group(
        self,
        resolution: _Resolution,
        group: Sequence[Tuple[int, _Request]],
        dequeued_at: float,
    ) -> None:
        """Serve a same-fingerprint group: one SpMM, or member by member.

        Members past their deadline are excluded first (and failed
        per-request).  The survivors are stacked into one SpMM only when
        the plan has a native SpMM kernel (degraded plans have none) and
        its verdict for this width says SpMM beats k calls of the serving
        kernel.  While the width's verdict is still open, the group
        runs whichever path is due and its per-RHS wall time — from the
        first kernel call to the last future resolved — becomes one
        sample of that path.
        """
        live = [
            (index, request)
            for index, request in group
            if not self._fail_if_expired(request)
        ]
        plan = resolution.plan
        if len(live) < 2 or not plan.native_spmm:
            if len(live) >= 2:
                self.metrics.counter("spmm_groups_unstacked").inc()
            self._serve_each(resolution, live, dequeued_at)
            return
        k = len(live)
        stack, measuring = plan.verdicts.choose(k)
        started = time.perf_counter()
        if stack:
            served = self._execute_stacked(resolution, live, dequeued_at)
        else:
            self.metrics.counter("spmm_groups_unstacked").inc()
            served = self._serve_each(resolution, live, dequeued_at)
        if measuring and served == k:
            plan.verdicts.record(
                k, stack, (time.perf_counter() - started) / k
            )

    def _execute_stacked(
        self,
        resolution: _Resolution,
        live: Sequence[Tuple[int, _Request]],
        dequeued_at: float,
    ) -> int:
        """One multi-RHS pass; returns how many members it served.

        The survivors' vectors are stacked into one dense RHS block and
        executed under a single ``serve.execute`` span carrying a
        ``batch_size`` attribute.  If the batched pass fails — injected
        fault or real — the whole group falls back to per-request SpMV
        so one poisoned request cannot fail its batchmates; retries,
        deadlines and fault injection then apply individually, exactly
        as for unbatched requests.  A fallback returns 0: its timing is
        no sample of either path.
        """
        # The injected-fault hook can sleep (latency faults), so it runs
        # before the deadline sweep below: a member whose budget expires
        # while the hook stalls must resolve DeadlineExceededError, not
        # be served late in the stacked pass.
        if self.faults is not None:
            try:
                self.faults.on_call("spmm")
            except Exception:
                self.metrics.counter("spmm_fallbacks").inc()
                self._serve_each(resolution, live, dequeued_at)
                return 0
        live = [
            (index, request)
            for index, request in live
            if not self._fail_if_expired(request)
        ]
        if len(live) < 2:
            self._serve_each(resolution, live, dequeued_at)
            return 0
        k = len(live)
        head = live[0][1]
        tracer = obs.get_tracer()
        execute_ctx = (
            tracer.span(
                "serve.execute",
                parent=head.trace_root,
                kernel=resolution.plan.kernel_name,
                batch_size=k,
            )
            if tracer is not None and head.trace_root is not None
            else obs.NULL_SPAN
        )
        try:
            with execute_ctx:
                started = time.perf_counter()
                X = np.stack([request.x for _, request in live], axis=1)
                Y = resolution.plan.spmm(X)
                elapsed = time.perf_counter() - started
        except Exception:
            # Per-request isolation: re-run the members individually so a
            # poisoned vector (or an injected spmm fault) fails only its
            # own request.  Futures are already RUNNING — _serve_one does
            # not re-mark them.
            self.metrics.counter("spmm_fallbacks").inc()
            self._serve_each(resolution, live, dequeued_at)
            return 0
        self.metrics.counter("spmm_batches_total").inc()
        self.metrics.counter("spmm_requests_batched").inc(k)
        self.metrics.histogram(
            "spmm_batch_rhs", buckets=(2, 4, 8, 16, 32, 64, 128)
        ).observe(k)
        per_request = elapsed / k
        for offset, (index, request) in enumerate(live):
            queued = dequeued_at - request.enqueued_at
            self._finish_request(
                resolution,
                index,
                request,
                queued,
                np.ascontiguousarray(Y[:, offset]),
                per_request,
                0,
                batch_size=k,
            )
        return k

    def _fail_if_expired(self, request: _Request) -> bool:
        """Fail an already-RUNNING request whose deadline has expired."""
        if request.deadline is None or not request.deadline.expired():
            return False
        self.metrics.counter("deadline_exceeded").inc()
        self.metrics.counter("requests_failed").inc()
        exc = DeadlineExceededError(
            f"deadline expired during plan resolution ({request.key})"
        )
        self._end_trace(request, error=exc)
        _try_set_exception(request.future, exc)
        return True

    def _finish_request(
        self,
        resolution: _Resolution,
        index: int,
        request: _Request,
        queued: float,
        y: np.ndarray,
        execute_seconds: float,
        retries: int,
        batch_size: int,
    ) -> None:
        plan = resolution.plan
        result = ServeResult(
            y=y,
            fingerprint=request.key,
            format_name=plan.format_name,
            kernel_name=plan.kernel_name,
            cache_hit=resolution.cache_hit or index > 0,
            used_fallback=(
                plan.decision is not None and plan.decision.used_fallback
            ),
            queued_seconds=queued,
            plan_seconds=resolution.seconds if index == 0 else 0.0,
            execute_seconds=execute_seconds,
            degraded=plan.degraded,
            retries=retries,
            refreshed=resolution.refreshed and index == 0,
            batch_size=batch_size,
        )
        self._observe(result)
        self._end_trace(
            request,
            format=result.format_name.value,
            kernel=result.kernel_name,
            cache_hit=result.cache_hit,
            coalesced=index > 0,
            degraded=result.degraded,
            retries=retries,
            batch_size=batch_size,
        )
        _try_set_result(request.future, result)

    def _execute_with_retry(
        self, resolution: _Resolution, request: _Request
    ) -> Optional[Tuple[np.ndarray, float, int]]:
        """(y, execute_seconds, retries), or None after resolving a failure."""
        tracer = obs.get_tracer()
        execute_ctx = (
            tracer.span(
                "serve.execute",
                parent=request.trace_root,
                kernel=resolution.plan.kernel_name,
            )
            if tracer is not None and request.trace_root is not None
            else obs.NULL_SPAN
        )
        outcome: Optional[Tuple[np.ndarray, float, int]] = None
        failure: Optional[Exception] = None
        with execute_ctx as execute_span:
            attempt = 0
            while True:
                try:
                    started = time.perf_counter()
                    with obs.span("serve.attempt", attempt=attempt):
                        if self.faults is not None:
                            self.faults.on_call("execute")
                        y = resolution.plan(request.x)
                    if execute_span is not None and attempt:
                        execute_span.attrs["retries"] = attempt
                    outcome = y, time.perf_counter() - started, attempt
                    break
                except Exception as exc:
                    deadline = request.deadline
                    retryable = (
                        attempt < self._retry.max_retries
                        and self._retry.is_retryable(exc)
                        and not (deadline is not None and deadline.expired())
                    )
                    if not retryable:
                        if execute_span is not None:
                            execute_span.attrs["failed"] = True
                        failure = exc
                        break
                    delay = self._retry.backoff(attempt)
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline.remaining()))
                    attempt += 1
                    self.metrics.counter("retries").inc()
                    if delay > 0.0:
                        self._sleep(delay)
        # The root span ends only after the execute span above closed, so
        # the tree stays well-nested even on the failure path.
        if failure is not None:
            self.metrics.counter("requests_failed").inc()
            self._end_trace(request, error=failure)
            _try_set_exception(request.future, failure)
            return None
        return outcome

    # ------------------------------------------------------------------
    # Tracing helpers (no-ops when the request carries no spans)
    # ------------------------------------------------------------------
    def _end_queue_span(self, request: _Request) -> None:
        """Close the queue-wait span at dequeue (idempotent)."""
        span, tracer = request.trace_queue, obs.get_tracer()
        if span is not None and tracer is not None:
            tracer.end(span)

    def _end_trace(
        self,
        request: _Request,
        error: Optional[BaseException] = None,
        **attrs,
    ) -> None:
        """Finish the request's root span with its outcome attributes."""
        tracer = obs.get_tracer()
        if tracer is None or request.trace_root is None:
            return
        self._end_queue_span(request)
        tracer.end(request.trace_root, error=error, **attrs)

    def _observe(self, result: ServeResult) -> None:
        self.metrics.counter("requests_served").inc()
        if result.cache_hit:
            self.metrics.counter("cache_hits").inc()
        if result.degraded:
            self.metrics.counter("degraded_requests").inc()
        self.metrics.histogram("queue_wait_seconds").observe(
            result.queued_seconds
        )
        self.metrics.histogram("plan_seconds").observe(result.plan_seconds)
        self.metrics.histogram("execute_seconds").observe(
            result.execute_seconds
        )
        self.metrics.histogram("total_seconds").observe(result.total_seconds)

    # ------------------------------------------------------------------
    # Plan resolution
    # ------------------------------------------------------------------
    def _resolve_plan(
        self,
        key: Fingerprint,
        matrix: CSRMatrix,
        deadline: Optional[Deadline] = None,
    ) -> _Resolution:
        started = time.perf_counter()
        plan = self.cache.get(key)
        if plan is not None:
            return _Resolution(
                _own_operand(plan, matrix), True, time.perf_counter() - started
            )

        breaker = self._breaker_for(key)
        ticket = breaker.acquire()
        if ticket is BuildTicket.DEGRADE:
            # Breaker open: skip re-tuning entirely, serve the reference
            # CSR plan (correct for any input, zero build cost).
            with obs.span("serve.degrade", reason="breaker_open"):
                return _Resolution(
                    Plan.reference(matrix),
                    False,
                    time.perf_counter() - started,
                )
        if ticket is BuildTicket.PROBE:
            self.metrics.counter("breaker_probes").inc()

        structure = (
            key.structure_key if self.config.structure_cache else None
        )
        lock_key: Hashable = structure if structure is not None else key
        build_lock = self._acquire_build_lock(lock_key)
        try:
            with build_lock:
                # Double-check: another worker may have built it while we
                # waited on the single-flight lock.
                plan = self.cache.get(key)
                if plan is not None:
                    if breaker.record_success():
                        self.metrics.counter("breaker_recovered").inc()
                    return _Resolution(
                        _own_operand(plan, matrix),
                        True,
                        time.perf_counter() - started,
                    )
                if structure is not None:
                    donor = self.cache.get_by_structure(structure)
                    if donor is not None:
                        plan = self._refresh_plan(key, matrix, donor)
                        if plan is not None:
                            if breaker.record_success():
                                self.metrics.counter(
                                    "breaker_recovered"
                                ).inc()
                            return _Resolution(
                                plan,
                                False,
                                time.perf_counter() - started,
                                refreshed=True,
                            )
                self.metrics.counter("cache_misses").inc()
                build_started = time.perf_counter()
                try:
                    with obs.span(
                        "serve.build", probe=ticket is BuildTicket.PROBE
                    ):
                        plan = self._build_plan(matrix, deadline)
                except Exception:
                    # Graceful degradation: the build failure is recorded
                    # against the breaker, but this batch is still served
                    # via the reference CSR plan rather than failed.
                    self.metrics.counter("plan_build_failures").inc()
                    if breaker.record_failure():
                        self.metrics.counter("breaker_opened").inc()
                    with obs.span("serve.degrade", reason="build_failed"):
                        return _Resolution(
                            Plan.reference(matrix),
                            False,
                            time.perf_counter() - started,
                        )
                if breaker.record_success():
                    self.metrics.counter("breaker_recovered").inc()
                # Cold-path latency: decision (feature extraction + model
                # walk or fallback) plus the format conversion.  Only a
                # cache miss pays this, so the histogram isolates exactly
                # the cost the vectorized cold path is meant to shrink.
                self.metrics.histogram("plan_build_seconds").observe(
                    time.perf_counter() - build_started
                )
                self.cache.put(key, plan)
                self.metrics.counter("plans_cached").inc()
        finally:
            self._release_build_lock(lock_key)
        self._update_gauges()
        return _Resolution(plan, False, time.perf_counter() - started)

    def _refresh_plan(
        self, key: Fingerprint, matrix: CSRMatrix, donor: Plan
    ) -> Optional[Plan]:
        """Tier-2 fast path: reuse the donor's decision, rebuild values.

        The donor is a resident plan whose structural digest matches
        ``matrix``; its decision (format, kernel, rule, overhead ledger)
        carries over verbatim and only the converted matrix's value
        arrays are rebuilt — no feature extraction, no rule walk, no
        conversion.  A CSR donor is bound to ``matrix`` itself, with no
        copy (see :func:`_own_operand`).  The refreshed plan is promoted
        into tier 1 under the new value fingerprint.  Returns None when
        the refresh fails for any reason: the caller then runs a full
        build, so a bad donor costs time, never correctness.
        """
        refresh_started = time.perf_counter()
        try:
            with obs.span(
                "plan.refresh",
                tier=2,
                fingerprint=str(key),
                format=donor.format_name.value,
            ):
                if self.faults is not None:
                    self.faults.on_call("refresh")
                if donor.format_name is FormatName.CSR:
                    plan = donor.refreshed(matrix)
                else:
                    plan = donor.refreshed(
                        donor.matrix.refresh_values(matrix)
                    )
        except Exception:
            self.metrics.counter("plan_refresh_failures").inc()
            return None
        self.metrics.counter("structure_hits").inc()
        self.metrics.counter("plans_refreshed").inc()
        self.metrics.histogram("plan_refresh_seconds").observe(
            time.perf_counter() - refresh_started
        )
        self.cache.put(key, plan)
        self.metrics.counter("plans_cached").inc()
        self._update_gauges()
        return plan

    def _build_plan(
        self, matrix: CSRMatrix, deadline: Optional[Deadline] = None
    ) -> Plan:
        if self.faults is not None:
            self.faults.on_call("decide")
        self._observe_model_epoch()
        decision = self.tuner.decide(matrix, deadline=deadline)
        if decision.used_fallback:
            self.metrics.counter("fallback_decisions").inc()
        stage_counter = _CASCADE_STAGE_COUNTER.get(decision.cascade_stage)
        if stage_counter is not None:
            self.metrics.counter(stage_counter).inc()
        plan = self._bind(decision)
        self.metrics.counter("plans_built").inc()
        return plan

    def _bind(self, decision: Decision) -> Plan:
        """The plan for a built or delta-migrated decision, after the
        engine's ``config.kernel_backend`` pass.

        The beat-or-keep audit runs at most once per build: a tuner that
        already ran its backend (``decision.codegen_units > 0``) keeps its
        verdict, compiled or generic.  Otherwise — a generic tuner, a
        cascade budget that refused the specialization, or a migrated
        operand — the engine runs :func:`specialize_kernel` here.  Any
        failure — including an injected ``codegen.compile`` fault — keeps
        the generic kernel: the build still succeeds, nothing reaches the
        breaker.
        """
        if self.config.kernel_backend == "generic":
            return Plan.of(decision)
        if decision.compiled_kernel is None and not decision.codegen_units:
            try:
                if self.faults is not None:
                    self.faults.on_call("codegen.compile")
                specialize_kernel(decision, self.config.kernel_backend)
            except Exception:
                self.metrics.counter("codegen_fallbacks").inc()
                return Plan.of(decision)
        if decision.compiled_kernel is not None:
            self.metrics.counter("codegen_kernels").inc()
        else:
            self.metrics.counter("codegen_kept_generic").inc()
        return Plan.of(decision)

    # ------------------------------------------------------------------
    # Hot-swap observation + single-flight and breaker registries
    # ------------------------------------------------------------------
    def _observe_model_epoch(self) -> None:
        """Count tuner model hot-swaps (OnlineSmat retrains or installed
        models) that happened since the last cold decision."""
        epoch = self.tuner.model_epoch
        with self._epoch_guard:
            if epoch > self._last_model_epoch:
                self.metrics.counter("ruleset_swaps").inc(
                    epoch - self._last_model_epoch
                )
            self._last_model_epoch = epoch

    def _acquire_build_lock(self, key: Hashable) -> threading.Lock:
        with self._build_locks_guard:
            entry = self._build_locks.get(key)
            if entry is None:
                entry = _BuildLock()
                self._build_locks[key] = entry
            entry.refs += 1
            return entry.lock

    def _release_build_lock(self, key: Hashable) -> None:
        with self._build_locks_guard:
            entry = self._build_locks.get(key)
            if entry is None:
                return
            entry.refs -= 1
            if entry.refs <= 0:
                del self._build_locks[key]

    def _breaker_for(self, key: Fingerprint) -> CircuitBreaker:
        with self._breakers_guard:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    threshold=self.config.breaker_threshold,
                    probe_interval=self.config.breaker_probe_interval,
                )
                self._breakers[key] = breaker
            return breaker

    def breaker_states(self) -> Dict[Fingerprint, BreakerState]:
        """Current breaker state per fingerprint seen (diagnostics)."""
        with self._breakers_guard:
            return {
                key: breaker.state
                for key, breaker in self._breakers.items()
            }

    def _update_gauges(self) -> None:
        stats = self.cache.stats()
        self.metrics.gauge("cache_entries").set(stats["entries"])
        self.metrics.gauge("cache_bytes").set(stats["bytes"])

    # ------------------------------------------------------------------
    def scoreboard(self) -> str:
        """Cache + request + resilience scoreboard (the serve-bench output)."""
        stats = self.cache.stats()
        states = list(self.breaker_states().values())
        open_count = sum(1 for s in states if s is BreakerState.OPEN)
        half_open = sum(1 for s in states if s is BreakerState.HALF_OPEN)
        # Per served request, so the line agrees with the counters below
        # whatever the worker timing.
        hits = self.metrics.counter("cache_hits").value
        misses = self.metrics.counter("cache_misses").value
        lookups = hits + misses
        lines = [
            "plan cache:",
            f"  entries {int(stats['entries'])} "
            f"({int(stats['bytes'])} bytes)",
            f"  hit rate {hits / lookups if lookups else 0.0:.1%} "
            f"({int(hits)} hits / {int(misses)} misses)",
            f"  structure hits {int(stats['structure_hits'])} "
            f"(tier 2, values refreshed in place)",
            f"  evictions {int(stats['evictions'])}",
            "breakers:",
            f"  {len(states)} tracked, {open_count} open, "
            f"{half_open} half-open",
            self.metrics.report(),
        ]
        if self.faults is not None:
            lines.append(self.faults.describe())
        return "\n".join(lines)
