"""The cluster dispatcher: shard routing, shared-memory publishing, repair.

``ClusterDispatcher`` is the client-facing half of :mod:`repro.cluster`.
It owns everything the workers must agree on:

* the **ring** — requests route by the matrix's *structure key* (see
  :mod:`repro.cluster.ring`), so one structure's plan is built once, on
  exactly one shard, and value churn for that structure keeps hitting the
  shard whose tier-2 cache can refresh it;
* the **plan store** — operand CSR arrays are published once per
  fingerprint into :class:`~repro.cluster.sharedmem.SharedArena`
  segments; requests and re-warms reference them by descriptor.  Request
  (``x``) and response (``y``) vectors get per-request slots from the
  same arenas.  The zero-copy invariant is measured, not assumed: every
  outbound message is charged to the ``operand_bytes_pickled`` counter
  via :func:`~repro.cluster.messages.ndarray_payload_bytes`, and staying
  at zero is an acceptance gate;
* the **repair loop** — heartbeat staleness and dead processes are
  detected by a monitor thread; a crashed shard is respawned under a new
  *generation*, its plans re-warmed from the dispatcher's structure
  index, and its in-flight requests re-dispatched (bounded by
  ``max_redispatches``).  Replies are only accepted from the generation
  a request was last dispatched to, so a dead incarnation's late replies
  can neither resolve a request nor free shared slots the replacement
  incarnation is still going to write;
* the **shard boundary resilience** — the same primitives the in-process
  engine uses (:class:`~repro.serve.resilience.CircuitBreaker`,
  bounded outstanding windows raising
  :class:`~repro.errors.BackpressureError`, absolute deadlines carried as
  machine-wide ``CLOCK_MONOTONIC`` expiries) applied per shard.  A shard
  whose breaker opens is served *locally* by the degraded CSR reference
  plan — the cluster sheds to correctness, never to silence.

Metrics from workers arrive as cumulative snapshots on heartbeats and
exits; the dispatcher keeps the latest per (shard, generation) and merges
with :func:`repro.serve.metrics.merge_snapshots` (see that module's
fork-safety notes for why this cannot double count).
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.messages import (
    DeltaShardReply,
    DeltaShardRequest,
    Heartbeat,
    InvalidateReply,
    InvalidateRequest,
    ModelUpdate,
    ModelUpdateReply,
    PlanHandle,
    ShardReply,
    ShardRequest,
    ShutdownRequest,
    WarmReply,
    WarmRequest,
    ndarray_payload_bytes,
)
from repro.cluster.ring import HashRing
from repro.cluster.sharedmem import SharedArena, SharedArrayRef, SharedMemoryError
from repro.cluster.worker import WorkerSpec, worker_main
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    ServeError,
    TransientError,
)
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta, apply_delta
from repro.serve.fingerprint import Fingerprint, fingerprint
from repro.serve.metrics import MetricsRegistry, format_snapshot, merge_snapshots
from repro.serve.resilience import BuildTicket, CircuitBreaker, DegradedPlan
from repro.types import FormatName

#: Dispatcher-side instruments, pre-registered so the scoreboard always
#: shows the repair and zero-copy paths, fired or not.
_CLUSTER_COUNTERS = (
    "requests_submitted",
    "requests_served",
    "requests_failed",
    "requests_rejected",
    "operand_bytes_pickled",
    "plans_published",
    "plans_invalidated",
    "plans_rewarmed",
    "rewarm_failures",
    "worker_crashes",
    "workers_respawned",
    "workers_hung",
    "redispatches",
    "stale_replies_ignored",
    "degraded_local",
    "shard_breaker_opened",
    "shard_breaker_probes",
    "shard_breaker_recovered",
    "model_pushes",
    "model_push_acks",
    "model_push_failures",
    "deltas_dispatched",
    "delta_migrations",
    "delta_rehomes",
    "delta_failures",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and repair policy of one sharded cluster."""

    #: Shard worker processes.
    workers: int = 2
    #: Virtual ring points per shard (routing smoothness).
    ring_replicas: int = 64
    #: Per-shard in-flight request window; beyond it submits raise
    #: :class:`BackpressureError` (the cluster's backpressure point).
    max_outstanding: int = 128
    #: Seconds between worker heartbeats.
    heartbeat_interval: float = 0.25
    #: A shard silent this long (while its process is alive) is hung:
    #: it is killed and respawned.
    heartbeat_timeout: float = 10.0
    #: Monitor thread poll period.
    monitor_interval: float = 0.05
    #: Seconds to wait for a spawned worker's ready heartbeat.
    spawn_timeout: float = 60.0
    #: Crash respawns per shard before it is declared dead (its traffic
    #: then degrades to local CSR serving).
    max_respawns: int = 3
    #: Times one request may be re-dispatched after worker crashes.
    max_redispatches: int = 2
    #: Default end-to-end deadline (seconds) per request; None = none.
    default_deadline: Optional[float] = None
    #: Consecutive shard failures (crashes/hangs) that open the shard's
    #: breaker; while open, requests degrade locally and every
    #: ``shard_breaker_probe_interval``-th is dispatched as a probe.
    shard_breaker_threshold: int = 2
    shard_breaker_probe_interval: int = 8
    #: Size of each shared-memory segment; the store grows by whole
    #: segments when one fills.
    arena_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_outstanding < 1:
            raise ValueError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}"
            )
        if self.heartbeat_interval <= 0.0:
            raise ValueError(
                f"heartbeat_interval must be > 0, "
                f"got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval})"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.max_redispatches < 0:
            raise ValueError(
                f"max_redispatches must be >= 0, got {self.max_redispatches}"
            )
        if self.arena_bytes < 4096:
            raise ValueError(
                f"arena_bytes must be >= 4096, got {self.arena_bytes}"
            )


@dataclass
class ClusterResult:
    """What the dispatcher hands back for one request.

    Duck-compatible with :class:`repro.serve.engine.ServeResult` where the
    workload driver cares (``y``, ``cache_hit``, timings), plus the
    cluster-only provenance: which shard and generation served it, whether
    it was re-dispatched across a crash, and whether the dispatcher had to
    degrade it locally because the shard was unavailable.
    """

    y: np.ndarray
    fingerprint: Fingerprint
    shard_id: int
    generation: int
    format_name: FormatName
    kernel_name: str
    cache_hit: bool
    used_fallback: bool
    queued_seconds: float
    plan_seconds: float
    execute_seconds: float
    #: Dispatcher-observed round trip (submit to accepted reply).
    dispatch_seconds: float
    degraded: bool = False
    #: Served by the dispatcher itself (shard breaker open / shard dead).
    degraded_local: bool = False
    refreshed: bool = False
    retries: int = 0
    #: Crash-driven re-dispatches this request survived.
    redispatches: int = 0

    @property
    def total_seconds(self) -> float:
        return self.dispatch_seconds


@dataclass
class ClusterDeltaResult:
    """Outcome of one dispatcher-level structure-delta migration.

    ``matrix`` is the post-delta CSR the caller must submit with from now
    on.  ``policy`` is the worker engine's migration choice ("patch",
    "refresh", "retune"), or "rehome" when the post-delta structure key
    routes to a *different* shard — the old shard's plan is invalidated
    and the new shard cold-builds on first request, so no migration
    message is sent at all.
    """

    matrix: CSRMatrix
    fingerprint: Fingerprint
    old_fingerprint: Fingerprint
    policy: str
    shard_id: int
    target_shard_id: int
    seconds: float


class _Pending:
    """One in-flight request: the future plus everything repair needs."""

    __slots__ = (
        "msg_id",
        "request",
        "future",
        "fingerprint",
        "shard_id",
        "expected_generation",
        "redispatches",
        "submitted_at",
        "trace_root",
    )

    def __init__(
        self,
        msg_id: int,
        request: ShardRequest,
        future: "Future[ClusterResult]",
        fp: Fingerprint,
        shard_id: int,
        generation: int,
    ) -> None:
        self.msg_id = msg_id
        self.request = request
        self.future = future
        self.fingerprint = fp
        self.shard_id = shard_id
        #: Replies are accepted only from this generation — the one the
        #: request was last dispatched to.  A dead incarnation's late
        #: reply must not resolve the future *or free the shared slots*
        #: its replacement is about to write into.
        self.expected_generation = generation
        self.redispatches = 0
        self.submitted_at = time.perf_counter()
        self.trace_root: Optional[obs.Span] = None


class _Shard:
    """Dispatcher-side state for one worker process."""

    def __init__(self, shard_id: int) -> None:
        self.id = shard_id
        self.generation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.request_q = None
        self.ready = threading.Event()
        self.last_heartbeat = 0.0
        self.outstanding: Dict[int, _Pending] = {}
        self.respawns = 0
        self.exited = False  # clean WorkerExit received
        self.dead = False    # respawn budget exhausted
        self.breaker: Optional[CircuitBreaker] = None
        self.last_queue_depth = 0


#: Reply error names mapped back to real exception classes so callers
#: catch the same types the in-process engine raises.
_ERROR_TYPES = {
    "DeadlineExceededError": DeadlineExceededError,
    "BackpressureError": BackpressureError,
    "TransientError": TransientError,
    "ServeError": ServeError,
    "ValueError": ValueError,
}


def _revive_error(error: Tuple[str, str]) -> Exception:
    name, message = error
    if name in _ERROR_TYPES:
        return _ERROR_TYPES[name](message)
    if name == "InjectedFault":
        return TransientError(f"InjectedFault: {message}")
    return ServeError(f"{name}: {message}")


class ClusterDispatcher:
    """N spawn-started shard workers behind consistent-hash routing.

    >>> spec = WorkerSpec(tuner=smat)
    >>> with ClusterDispatcher(spec, ClusterConfig(workers=4)) as cluster:
    ...     y = cluster.spmv(matrix, x).y
    ...     print(cluster.scoreboard())
    """

    def __init__(
        self,
        worker_spec: WorkerSpec,
        config: ClusterConfig = ClusterConfig(),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.metrics.ensure(
            counters=_CLUSTER_COUNTERS,
            gauges=("published_bytes", "published_plans"),
            histograms=("dispatch_seconds",),
        )
        # Workers must see the dispatcher's heartbeat cadence, not their
        # spec default, so staleness detection and emission agree.
        self._worker_spec = replace(
            worker_spec, heartbeat_interval=config.heartbeat_interval
        )
        # spawn, never fork: see repro.serve.metrics on why fork would
        # double-count and repro.cluster.worker on why it would deadlock.
        self._ctx = multiprocessing.get_context("spawn")
        self._ring = HashRing(
            list(range(config.workers)), replicas=config.ring_replicas
        )
        self._shards: Dict[int, _Shard] = {}
        for shard_id in range(config.workers):
            shard = _Shard(shard_id)
            shard.breaker = CircuitBreaker(
                threshold=config.shard_breaker_threshold,
                probe_interval=config.shard_breaker_probe_interval,
            )
            self._shards[shard_id] = shard
        self._reply_q = self._ctx.Queue()
        self._lock = threading.RLock()
        self._msg_ids = itertools.count(1)
        # The plan store: fingerprint -> published handle, plus the
        # shard index re-warms read from.
        self._published: Dict[Fingerprint, PlanHandle] = {}
        self._shard_plans: Dict[int, Dict[Fingerprint, PlanHandle]] = {
            shard_id: {} for shard_id in self._shards
        }
        self._invalidating: Dict[Fingerprint, PlanHandle] = {}
        self._arenas: Dict[str, SharedArena] = {}
        # Latest cumulative worker snapshots, keyed (shard, generation).
        self._worker_metrics: Dict[Tuple[int, int], Dict] = {}
        self._worker_cache_stats: Dict[Tuple[int, int], Dict] = {}
        # Replaced request queues are parked here until stop(): letting
        # one be garbage-collected runs its SemLock finalizer, which
        # unlinks the semaphore a just-spawned child may still be
        # unpickling (FileNotFoundError in the child's bootstrap).
        self._retired_queues: List[object] = []
        # In-flight structure-delta migrations awaiting their reply.
        self._delta_waiters: Dict[int, "Future[DeltaShardReply]"] = {}
        self._started = False
        self._stopping = False
        #: Monotonic ruleset-push counter; echoed in ModelUpdateReply.
        self._model_epoch = 0
        #: Latest pushed ruleset, replayed to respawned workers.
        self._last_pushed_model: Optional[object] = None
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterDispatcher":
        with self._lock:
            if self._started:
                raise ServeError("cluster already started")
            self._started = True
        self._collector = threading.Thread(
            target=self._collector_loop, name="cluster-collector", daemon=True
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        for shard in self._shards.values():
            self._spawn(shard)
        deadline = time.monotonic() + self.config.spawn_timeout
        for shard in self._shards.values():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not shard.ready.wait(remaining):
                self.stop(drain=False)
                raise ServeError(
                    f"shard {shard.id} did not become ready within "
                    f"{self.config.spawn_timeout}s"
                )
        return self

    def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) one shard under a fresh generation."""
        with self._lock:
            shard.generation += 1
            shard.ready.clear()
            shard.exited = False
            if shard.request_q is not None:
                self._retired_queues.append(shard.request_q)
            shard.request_q = self._ctx.Queue()
            shard.last_heartbeat = time.monotonic()
            process = self._ctx.Process(
                target=worker_main,
                name=f"smat-shard-{shard.id}",
                args=(
                    shard.id,
                    shard.generation,
                    self._worker_spec,
                    shard.request_q,
                    self._reply_q,
                ),
                daemon=True,
            )
            shard.process = process
        process.start()

    def stop(self, drain: bool = True) -> None:
        """Shut the fleet down; with ``drain`` backlogs are served first."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            shards = list(self._shards.values())
        for shard in shards:
            if shard.request_q is not None and not shard.dead:
                try:
                    shard.request_q.put(ShutdownRequest(drain=drain))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        join_deadline = time.monotonic() + (30.0 if drain else 2.0)
        for shard in shards:
            if shard.process is None:
                continue
            shard.process.join(max(0.1, join_deadline - time.monotonic()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(2.0)
        # Let the collector absorb final replies/exits before it stops.
        time.sleep(0.05)
        if self._collector is not None:
            self._collector.join(5.0)
        if self._monitor is not None:
            self._monitor.join(5.0)
        with self._lock:
            failures = [
                pending
                for shard in shards
                for pending in shard.outstanding.values()
            ]
            for shard in shards:
                shard.outstanding.clear()
        for pending in failures:
            self._fail(pending, ServeError("cluster stopped before reply"))
        self._reply_q.close()
        for arena in self._arenas.values():
            arena.close(unlink=True)

    def __enter__(self) -> "ClusterDispatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # The plan store
    # ------------------------------------------------------------------
    def _alloc(self, shape, dtype) -> SharedArrayRef:
        """A slot from any arena with room, growing by whole segments."""
        with self._lock:
            for arena in self._arenas.values():
                try:
                    return arena.alloc(shape, dtype)
                except SharedMemoryError:
                    continue
            needed = int(np.prod(shape, dtype=np.int64)) * np.dtype(
                dtype
            ).itemsize
            arena = SharedArena(max(self.config.arena_bytes, 2 * needed))
            self._arenas[arena.name] = arena
            return arena.alloc(shape, dtype)

    def _free(self, ref: SharedArrayRef) -> None:
        with self._lock:
            arena = self._arenas.get(ref.segment)
        if arena is not None:
            arena.free(ref)

    def _place(self, array: np.ndarray) -> SharedArrayRef:
        ref = self._alloc(array.shape, array.dtype)
        with self._lock:
            arena = self._arenas[ref.segment]
        view = arena.view(ref)
        np.copyto(view, array)
        return ref

    def _publish(
        self, fp: Fingerprint, matrix: CSRMatrix, shard_id: int
    ) -> PlanHandle:
        """Copy the operand into shared memory once per fingerprint."""
        with self._lock:
            handle = self._published.get(fp)
            if handle is not None:
                return handle
        with obs.span(
            "cluster.publish",
            fingerprint=str(fp),
            shard=shard_id,
            nnz=int(matrix.nnz),
        ):
            handle = PlanHandle(
                fingerprint=fp,
                ptr=self._place(matrix.ptr),
                indices=self._place(matrix.indices),
                data=self._place(matrix.data),
                shape=(int(matrix.n_rows), int(matrix.n_cols)),
            )
        with self._lock:
            raced = self._published.get(fp)
            if raced is not None:  # pragma: no cover - submit race
                for ref in (handle.ptr, handle.indices, handle.data):
                    self._free(ref)
                return raced
            self._published[fp] = handle
            self._shard_plans[shard_id][fp] = handle
            self.metrics.counter("plans_published").inc()
            self.metrics.gauge("published_plans").set(len(self._published))
            self.metrics.gauge("published_bytes").add(handle.operand_bytes)
        return handle

    def _send_invalidate(self, handle: PlanHandle) -> None:
        """Ask the owning shard to drop ``handle``'s plan; ack-gated.

        The arena slots are freed only when the worker's
        :class:`InvalidateReply` confirms the plan is gone — and because
        the request queue is FIFO, every request already queued for that
        structure is served before the invalidate lands.  Until the ack,
        the bytes stay accounted.
        """
        fp = handle.fingerprint
        shard_id = self._ring.route(str(fp.structure_key))
        with self._lock:
            self._invalidating[fp] = handle
            self._shard_plans[shard_id].pop(fp, None)
            shard = self._shards[shard_id]
            if shard.dead or shard.request_q is None:
                # No worker to ack; reclaim directly.
                self._reclaim(handle)
                return
        message = InvalidateRequest(fingerprint=fp)
        self._charge_payload(message)
        shard.request_q.put(message)

    def _reclaim(self, handle: PlanHandle) -> None:
        with self._lock:
            self._invalidating.pop(handle.fingerprint, None)
        for ref in (handle.ptr, handle.indices, handle.data):
            self._free(ref)
        self.metrics.counter("plans_invalidated").inc()
        self.metrics.gauge("published_bytes").add(-handle.operand_bytes)
        self.metrics.gauge("published_plans").set(len(self._published))

    def invalidate(self, matrix: CSRMatrix) -> bool:
        """Drop the published operand + the owning shard's plan for it."""
        fp = fingerprint(matrix)
        with self._lock:
            handle = self._published.pop(fp, None)
        if handle is None:
            return False
        self._send_invalidate(handle)
        return True

    def push_model(self, model) -> int:
        """Broadcast a retrained ruleset to every live shard.

        The serving loop's close: an :class:`~repro.tuner.OnlineSmat`
        retrained from serve telemetry (dispatcher-side or offline) is
        hot-swapped into each worker's engine without a restart.  The
        model is nested plain dataclasses — no arrays — so the push
        keeps the zero-copy invariant.  Returns the number of shards the
        update was sent to; worker acks land on ``model_push_acks`` (or
        ``model_push_failures``).
        """
        with self._lock:
            if not self._started or self._stopping:
                raise ServeError("cluster is not running (call start())")
            self._model_epoch += 1
            epoch = self._model_epoch
            self._last_pushed_model = model
            targets = [
                shard
                for shard in self._shards.values()
                if not shard.dead and shard.request_q is not None
            ]
        message = ModelUpdate(model=model, epoch=epoch)
        sent = 0
        for shard in targets:
            self._charge_payload(message)
            try:
                shard.request_q.put(message)
            except (OSError, ValueError):  # queue closed under us
                continue
            sent += 1
        self.metrics.counter("model_pushes").inc(sent)
        return sent

    def apply_structure_delta(
        self,
        matrix: CSRMatrix,
        delta: StructureDelta,
        timeout: float = 30.0,
    ) -> ClusterDeltaResult:
        """Mutate a served structure cluster-wide, descriptor-only.

        The dispatcher owns the authoritative CSR, so the edge edits are
        applied here once; the post-delta structure key then decides the
        path.  Same shard → the delta arrays are placed into shared
        memory and a :class:`DeltaShardRequest` asks the owning worker to
        migrate its plan in place (patch / refresh / retune — its engine
        retires the old fingerprint from both cache tiers).  Different
        shard, dead shard, or never-published structure → no migration
        message is sent: the old operand is invalidated and the new
        shard cold-builds on first submit (policy ``"rehome"``).  Either
        way the pre-delta published operand is retired, so no request
        can ever route to a stale plan.
        """
        with self._lock:
            if not self._started or self._stopping:
                raise ServeError("cluster is not running (call start())")
        started = time.perf_counter()
        old_fp = fingerprint(matrix)
        new_csr, _effect = apply_delta(matrix, delta)
        new_fp = fingerprint(new_csr)
        old_shard_id = self._ring.route(str(old_fp.structure_key))
        target_shard_id = self._ring.route(str(new_fp.structure_key))
        self.metrics.counter("deltas_dispatched").inc()
        shard = self._shards[old_shard_id]
        with self._lock:
            old_handle = self._published.get(old_fp)
            migratable = (
                old_handle is not None
                and target_shard_id == old_shard_id
                and not shard.dead
                and shard.request_q is not None
            )

        def _retire_old() -> None:
            with self._lock:
                handle = self._published.pop(old_fp, None)
            if handle is not None:
                self._send_invalidate(handle)

        if not migratable:
            _retire_old()
            self.metrics.counter("delta_rehomes").inc()
            return ClusterDeltaResult(
                matrix=new_csr,
                fingerprint=new_fp,
                old_fingerprint=old_fp,
                policy="rehome",
                shard_id=old_shard_id,
                target_shard_id=target_shard_id,
                seconds=time.perf_counter() - started,
            )

        new_handle = self._publish(new_fp, new_csr, target_shard_id)
        delta_refs = tuple(
            self._place(array)
            for array in (
                delta.insert_rows,
                delta.insert_cols,
                delta.insert_vals,
                delta.delete_rows,
                delta.delete_cols,
            )
        )
        msg_id = next(self._msg_ids)
        waiter: "Future[DeltaShardReply]" = Future()
        with self._lock:
            self._delta_waiters[msg_id] = waiter
        message = DeltaShardRequest(
            msg_id=msg_id,
            old=old_handle,
            new=new_handle,
            insert_rows=delta_refs[0],
            insert_cols=delta_refs[1],
            insert_vals=delta_refs[2],
            delete_rows=delta_refs[3],
            delete_cols=delta_refs[4],
        )
        self._charge_payload(message)
        try:
            shard.request_q.put(message)
            reply = waiter.result(timeout=timeout)
        except BaseException:
            with self._lock:
                self._delta_waiters.pop(msg_id, None)
            self.metrics.counter("delta_failures").inc()
            for ref in delta_refs:
                self._free(ref)
            raise
        for ref in delta_refs:
            self._free(ref)
        _retire_old()
        if not reply.ok:
            self.metrics.counter("delta_failures").inc()
            assert reply.error is not None
            raise _revive_error(reply.error)
        self.metrics.counter("delta_migrations").inc()
        return ClusterDeltaResult(
            matrix=new_csr,
            fingerprint=new_fp,
            old_fingerprint=old_fp,
            policy=reply.policy or "retune",
            shard_id=old_shard_id,
            target_shard_id=target_shard_id,
            seconds=time.perf_counter() - started,
        )

    def shard_assignments(self) -> Dict[int, List[Fingerprint]]:
        """Which structures live on which shard (diagnostics/tests)."""
        with self._lock:
            return {
                shard_id: list(plans.keys())
                for shard_id, plans in self._shard_plans.items()
            }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        deadline: Optional[float] = None,
    ) -> "Future[ClusterResult]":
        """Route one SpMV to its structure's shard; returns a future."""
        with self._lock:
            if not self._started or self._stopping:
                raise ServeError("cluster is not running (call start())")
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != matrix.n_cols:
            raise ValueError(
                f"operand vector has shape {x.shape}; the matrix needs "
                f"a 1-D vector of length {matrix.n_cols}"
            )
        effective_deadline = (
            deadline if deadline is not None else self.config.default_deadline
        )
        fp = fingerprint(matrix)
        shard_id = self._ring.route(str(fp.structure_key))
        shard = self._shards[shard_id]
        self.metrics.counter("requests_submitted").inc()

        future: "Future[ClusterResult]" = Future()
        if shard.dead:
            self._serve_degraded_local(
                future, matrix, x, fp, shard_id, reason="shard_dead"
            )
            return future
        ticket = shard.breaker.acquire()
        if ticket is BuildTicket.DEGRADE:
            self._serve_degraded_local(
                future, matrix, x, fp, shard_id, reason="breaker_open"
            )
            return future
        if ticket is BuildTicket.PROBE:
            self.metrics.counter("shard_breaker_probes").inc()

        with self._lock:
            if len(shard.outstanding) >= self.config.max_outstanding:
                self.metrics.counter("requests_rejected").inc()
                raise BackpressureError(
                    f"shard {shard_id} has {len(shard.outstanding)} "
                    f"requests outstanding (cap "
                    f"{self.config.max_outstanding})"
                )
        handle = self._publish(fp, matrix, shard_id)
        x_ref = self._place(x)
        y_ref = self._alloc((int(matrix.n_rows),), matrix.dtype)
        expires_at = (
            time.monotonic() + effective_deadline
            if effective_deadline is not None
            else None
        )
        msg_id = next(self._msg_ids)
        request = ShardRequest(
            msg_id=msg_id,
            plan=handle,
            x=x_ref,
            y=y_ref,
            expires_at=expires_at,
        )
        pending = _Pending(msg_id, request, future, fp, shard_id, 0)
        tracer = obs.get_tracer()
        if tracer is not None:
            pending.trace_root = tracer.begin(
                "cluster.request",
                parent=None,
                fingerprint=str(fp),
                shard_id=shard_id,
                nnz=int(matrix.nnz),
            )
        with self._lock:
            pending.expected_generation = shard.generation
            shard.outstanding[msg_id] = pending
            request_q = shard.request_q
        self._charge_payload(request)
        try:
            request_q.put(request)
        except BaseException:
            with self._lock:
                shard.outstanding.pop(msg_id, None)
            self._release_slots(pending)
            raise
        return future

    def spmv(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        deadline: Optional[float] = None,
    ) -> ClusterResult:
        """Synchronous convenience wrapper over :meth:`submit`."""
        return self.submit(matrix, x, deadline=deadline).result()

    def _charge_payload(self, message) -> None:
        """Charge any array bytes riding in ``message`` to the invariant
        counter.  Staying at zero is the zero-copy acceptance gate."""
        payload = ndarray_payload_bytes(message)
        if payload:  # pragma: no cover - the invariant holding means never
            self.metrics.counter("operand_bytes_pickled").inc(payload)

    def _serve_degraded_local(
        self,
        future: "Future[ClusterResult]",
        matrix: CSRMatrix,
        x: np.ndarray,
        fp: Fingerprint,
        shard_id: int,
        reason: str,
    ) -> None:
        """Shard unavailable: answer here with the CSR reference plan."""
        started = time.perf_counter()
        with obs.span("cluster.degrade", shard_id=shard_id, reason=reason):
            y = DegradedPlan(matrix).execute(x)
        elapsed = time.perf_counter() - started
        self.metrics.counter("degraded_local").inc()
        self.metrics.counter("requests_served").inc()
        self.metrics.histogram("dispatch_seconds").observe(elapsed)
        future.set_result(
            ClusterResult(
                y=y,
                fingerprint=fp,
                shard_id=shard_id,
                generation=-1,
                format_name=DegradedPlan.format_name,
                kernel_name=DegradedPlan.KERNEL_NAME,
                cache_hit=False,
                used_fallback=False,
                queued_seconds=0.0,
                plan_seconds=0.0,
                execute_seconds=elapsed,
                dispatch_seconds=elapsed,
                degraded=True,
                degraded_local=True,
            )
        )

    # ------------------------------------------------------------------
    # Reply collection
    # ------------------------------------------------------------------
    def _collector_loop(self) -> None:
        while True:
            try:
                message = self._reply_q.get(timeout=0.1)
            except queue.Empty:
                with self._lock:
                    drained = self._stopping and all(
                        not s.outstanding for s in self._shards.values()
                    )
                    settled = drained and all(
                        s.exited
                        or s.process is None
                        or not s.process.is_alive()
                        for s in self._shards.values()
                    )
                if settled:
                    return
                continue
            except (OSError, ValueError):  # queue closed under us
                return
            try:
                self._handle_reply(message)
            except Exception:  # pragma: no cover - collector must survive
                pass

    def _handle_reply(self, message) -> None:
        if isinstance(message, Heartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, ShardReply):
            self._on_shard_reply(message)
        elif isinstance(message, WarmReply):
            self.metrics.counter("plans_rewarmed").inc(message.warmed)
            if message.failed:
                self.metrics.counter("rewarm_failures").inc(message.failed)
        elif isinstance(message, InvalidateReply):
            with self._lock:
                handle = self._invalidating.get(message.fingerprint)
            if handle is not None:
                self._reclaim(handle)
        elif isinstance(message, ModelUpdateReply):
            if message.ok:
                self.metrics.counter("model_push_acks").inc()
            else:
                self.metrics.counter("model_push_failures").inc()
        elif isinstance(message, DeltaShardReply):
            with self._lock:
                waiter = self._delta_waiters.pop(message.msg_id, None)
            if waiter is not None:
                waiter.set_result(message)
        else:  # WorkerExit
            self._on_worker_exit(message)

    def _on_heartbeat(self, beat: Heartbeat) -> None:
        shard = self._shards.get(beat.shard_id)
        if shard is None:
            return
        with self._lock:
            if beat.generation != shard.generation:
                return  # a dead incarnation's last gasp
            shard.last_heartbeat = time.monotonic()
            shard.last_queue_depth = beat.queue_depth
            if not shard.ready.is_set():
                shard.ready.set()
            if beat.metrics is not None:
                self._worker_metrics[
                    (beat.shard_id, beat.generation)
                ] = beat.metrics
            if beat.cache_stats is not None:
                self._worker_cache_stats[
                    (beat.shard_id, beat.generation)
                ] = beat.cache_stats
        self.metrics.gauge(f"shard{beat.shard_id}_queue_depth").set(
            max(0, beat.queue_depth)
        )

    def _on_worker_exit(self, message) -> None:
        shard = self._shards.get(message.shard_id)
        if shard is None:
            return
        with self._lock:
            if message.generation != shard.generation:
                return
            shard.exited = True
            if message.metrics is not None:
                self._worker_metrics[
                    (message.shard_id, message.generation)
                ] = message.metrics
            if message.cache_stats is not None:
                self._worker_cache_stats[
                    (message.shard_id, message.generation)
                ] = message.cache_stats

    def _on_shard_reply(self, reply: ShardReply) -> None:
        shard = self._shards.get(reply.shard_id)
        if shard is None:
            return
        with self._lock:
            pending = shard.outstanding.get(reply.msg_id)
            if pending is None:
                return  # duplicate after re-dispatch already resolved
            if reply.generation != pending.expected_generation:
                # A dead incarnation managed to reply before we noticed
                # the crash; its replacement owns this request now and
                # will write the shared slots again — dropping this reply
                # (instead of freeing those slots) is what keeps the
                # re-dispatch path corruption-free.
                self.metrics.counter("stale_replies_ignored").inc()
                return
            del shard.outstanding[reply.msg_id]
            shard.last_heartbeat = time.monotonic()
        if reply.ok:
            shard.breaker.record_success() and self.metrics.counter(
                "shard_breaker_recovered"
            ).inc()
            self._resolve(pending, reply)
        else:
            # Request-level failures (deadline, injected faults that
            # exhausted the worker's retries) are final outcomes of a
            # healthy shard — they do not trip the shard breaker.
            shard.breaker.record_success()
            self._fail(pending, _revive_error(reply.error))

    def _resolve(self, pending: _Pending, reply: ShardReply) -> None:
        with self._lock:
            arena = self._arenas.get(pending.request.y.segment)
        y = (
            np.array(arena.view(pending.request.y), copy=True)
            if arena is not None
            else np.zeros(pending.request.y.shape, pending.request.y.dtype)
        )
        self._release_slots(pending)
        meta = reply.meta
        elapsed = time.perf_counter() - pending.submitted_at
        result = ClusterResult(
            y=y,
            fingerprint=pending.fingerprint,
            shard_id=reply.shard_id,
            generation=reply.generation,
            format_name=FormatName(meta.get("format", "csr")),
            kernel_name=str(meta.get("kernel", "")),
            cache_hit=bool(meta.get("cache_hit", False)),
            used_fallback=bool(meta.get("used_fallback", False)),
            queued_seconds=float(meta.get("queued_seconds", 0.0)),
            plan_seconds=float(meta.get("plan_seconds", 0.0)),
            execute_seconds=float(meta.get("execute_seconds", 0.0)),
            dispatch_seconds=elapsed,
            degraded=bool(meta.get("degraded", False)),
            refreshed=bool(meta.get("refreshed", False)),
            retries=int(meta.get("retries", 0)),
            redispatches=pending.redispatches,
        )
        self.metrics.counter("requests_served").inc()
        self.metrics.histogram("dispatch_seconds").observe(elapsed)
        self._end_trace(
            pending,
            shard_id=reply.shard_id,
            generation=reply.generation,
            cache_hit=result.cache_hit,
            redispatches=pending.redispatches,
        )
        try:
            pending.future.set_result(result)
        except Exception:  # pragma: no cover - caller cancelled
            pass

    def _fail(self, pending: _Pending, exc: Exception) -> None:
        self._release_slots(pending)
        self.metrics.counter("requests_failed").inc()
        self._end_trace(pending, error=exc)
        try:
            pending.future.set_exception(exc)
        except Exception:  # pragma: no cover - caller cancelled
            pass

    def _release_slots(self, pending: _Pending) -> None:
        """Free this request's x/y slots (never the published operand)."""
        for ref in (pending.request.x, pending.request.y):
            try:
                self._free(ref)
            except SharedMemoryError:  # pragma: no cover - double release
                pass

    def _end_trace(
        self,
        pending: _Pending,
        error: Optional[BaseException] = None,
        **attrs,
    ) -> None:
        tracer = obs.get_tracer()
        if tracer is None or pending.trace_root is None:
            return
        tracer.end(pending.trace_root, error=error, **attrs)
        pending.trace_root = None

    # ------------------------------------------------------------------
    # Repair: crash detection, respawn, re-warm, re-dispatch
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while True:
            time.sleep(self.config.monitor_interval)
            with self._lock:
                if self._stopping:
                    return
                shards = list(self._shards.values())
            now = time.monotonic()
            for shard in shards:
                if shard.dead or shard.process is None:
                    continue
                alive = shard.process.is_alive()
                # A not-yet-ready incarnation is still paying spawn cost
                # (interpreter + imports before its first heartbeat), so
                # it gets the spawn budget, not the steady-state one.
                allowance = (
                    self.config.heartbeat_timeout
                    if shard.ready.is_set()
                    else self.config.spawn_timeout
                )
                stale = now - shard.last_heartbeat > allowance
                if alive and not stale:
                    continue
                with self._lock:
                    if self._stopping or shard.exited:
                        continue
                if alive and stale:
                    # Hung, not dead: kill it so repair can proceed.
                    self.metrics.counter("workers_hung").inc()
                    shard.process.terminate()
                    shard.process.join(2.0)
                self._repair(shard)

    def _repair(self, shard: _Shard) -> None:
        """Respawn a crashed shard, re-warm its plans, re-send its work."""
        self.metrics.counter("worker_crashes").inc()
        if shard.breaker.record_failure():
            self.metrics.counter("shard_breaker_opened").inc()
        with obs.span(
            "cluster.repair",
            shard_id=shard.id,
            generation=shard.generation,
            outstanding=len(shard.outstanding),
        ):
            if shard.respawns >= self.config.max_respawns:
                with self._lock:
                    shard.dead = True
                    failures = list(shard.outstanding.values())
                    shard.outstanding.clear()
                for pending in failures:
                    self._fail(
                        pending,
                        ServeError(
                            f"shard {shard.id} exceeded "
                            f"{self.config.max_respawns} respawns"
                        ),
                    )
                return
            shard.respawns += 1
            self._spawn(shard)
            self.metrics.counter("workers_respawned").inc()
            # Re-warm before re-dispatch: the queue is FIFO, so plans are
            # rebuilt from the structure index before any request runs.
            with self._lock:
                handles = tuple(self._shard_plans[shard.id].values())
                new_generation = shard.generation
                pendings = sorted(
                    shard.outstanding.values(), key=lambda p: p.msg_id
                )
                request_q = shard.request_q
            if handles:
                warm = WarmRequest(handles=handles)
                self._charge_payload(warm)
                request_q.put(warm)
            # A respawned worker starts from the spec's original tuner;
            # replay the latest pushed ruleset so it doesn't serve stale
            # rules until the next broadcast.
            with self._lock:
                last_model = self._last_pushed_model
                epoch = self._model_epoch
            if last_model is not None:
                update = ModelUpdate(model=last_model, epoch=epoch)
                self._charge_payload(update)
                request_q.put(update)
                self.metrics.counter("model_pushes").inc()
            for pending in pendings:
                pending.redispatches += 1
                if pending.redispatches > self.config.max_redispatches:
                    with self._lock:
                        shard.outstanding.pop(pending.msg_id, None)
                    self._fail(
                        pending,
                        ServeError(
                            f"request {pending.msg_id} lost to "
                            f"{pending.redispatches} shard crashes"
                        ),
                    )
                    continue
                with self._lock:
                    pending.expected_generation = new_generation
                self.metrics.counter("redispatches").inc()
                self._charge_payload(pending.request)
                request_q.put(pending.request)

    def kill_worker(self, shard_id: int) -> None:
        """Hard-kill one shard process (chaos tool for tests/benches)."""
        process = self._shards[shard_id].process
        if process is not None and process.is_alive():
            process.kill()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def worker_metrics(self) -> Dict[str, Dict]:
        """All worker registries merged into one snapshot (see
        :func:`repro.serve.metrics.merge_snapshots`)."""
        with self._lock:
            snapshots = list(self._worker_metrics.values())
        return merge_snapshots(snapshots)

    def cache_stats(self) -> Dict[str, float]:
        """Fleet-wide plan-cache stats summed over worker incarnations."""
        with self._lock:
            stats_list = list(self._worker_cache_stats.values())
        totals: Dict[str, float] = {}
        for stats in stats_list:
            for key, value in stats.items():
                if key == "hit_rate":
                    continue
                totals[key] = totals.get(key, 0.0) + float(value)
        lookups = totals.get("hits", 0.0) + totals.get("misses", 0.0)
        totals["hit_rate"] = totals.get("hits", 0.0) / lookups if lookups else 0.0
        return totals

    def scoreboard(self) -> str:
        """Cluster-wide scoreboard: shards, store, merged worker metrics."""
        with self._lock:
            shard_lines = [
                f"  shard {shard.id}: gen {shard.generation}, "
                f"{len(shard.outstanding)} in flight, "
                f"queue depth {max(0, shard.last_queue_depth)}, "
                f"respawns {shard.respawns}"
                + (" [dead]" if shard.dead else "")
                for shard in self._shards.values()
            ]
            published = len(self._published)
            published_bytes = sum(
                h.operand_bytes for h in self._published.values()
            )
            segments = len(self._arenas)
        stats = self.cache_stats()
        lines = [
            f"cluster: {len(self._shards)} shards",
            *shard_lines,
            "plan store:",
            f"  {published} structures published "
            f"({published_bytes} bytes in {segments} segments)",
            f"  fleet hit rate {stats.get('hit_rate', 0.0):.1%} "
            f"({int(stats.get('hits', 0))} hits / "
            f"{int(stats.get('misses', 0))} misses)",
            f"  structure hits {int(stats.get('structure_hits', 0))} (tier 2)",
            "dispatcher:",
            self.metrics.report(),
            "workers (merged):",
            format_snapshot(self.worker_metrics()),
        ]
        return "\n".join(lines)
