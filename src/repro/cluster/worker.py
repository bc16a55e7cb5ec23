"""The shard worker: one process, one single-threaded serving engine.

A worker is deliberately boring: it wraps the battle-tested
:class:`~repro.serve.ServingEngine` (plan cache, tier-2 structure
refresh, deadlines, retries, breakers, fault injection — all of it)
behind a message loop.  What makes it a *cluster* worker:

* **zero-copy operands** — requests arrive as
  :class:`~repro.cluster.messages.PlanHandle` descriptors; the worker
  maps the CSR arrays out of shared memory
  (:class:`~repro.cluster.sharedmem.SegmentCache`) and wraps them with
  ``CSRMatrix._from_validated`` — no bytes are copied or unpickled, and
  the arrays were validated once, dispatcher-side, at publish time.
  Results are written straight into the request's shared ``y`` slot;
  the reply message carries timings and plan metadata only.
* **spawn-only start** — the worker entry point refuses to run under a
  ``fork`` start method.  Forking a serving process would duplicate
  locked metrics registries, executor threads and tracer state at
  whatever instant the fork happened; ``spawn`` gives every worker a
  fresh interpreter whose registry provably starts at zero (which is
  what makes the dispatcher's snapshot merge double-count-free).
* **heartbeats** — between requests the worker emits its liveness and a
  *cumulative* metrics snapshot; the dispatcher detects silence (or a
  dead process) and respawns.

``WorkerRuntime`` is process-agnostic — it only needs ``get``/``put``
queues — so the full loop is unit-testable in-process on ``queue.Queue``
without paying a spawn per test.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.cluster.messages import (
    CrashRequest,
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
    WorkerExit,
)
from repro.cluster.sharedmem import SegmentCache
from repro.errors import DeadlineExceededError, ServeError
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta
from repro.serve.engine import ServeConfig, ServeResult, ServingEngine
from repro.serve.faults import FaultPlan


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to boot, picklable for spawn.

    The tuner rides along directly — a trained :class:`~repro.tuner.SMAT`
    pickles to a few kilobytes (rules and kernel names, never matrices).
    """

    tuner: object
    config: ServeConfig = field(
        default_factory=lambda: ServeConfig(workers=1)
    )
    #: ``FaultPlan.parse`` specs; the seed is offset by shard id so each
    #: shard draws an independent, reproducible fault stream.
    fault_specs: Tuple[str, ...] = ()
    fault_seed: int = 0
    heartbeat_interval: float = 0.25
    #: Test hook: serve this many requests, then die like a crashed
    #: process (``os._exit``).  None = never.
    crash_after: Optional[int] = None


def _result_meta(result: ServeResult) -> dict:
    """The picklable slice of a ServeResult (no ``y`` — that is in shm)."""
    return {
        "format": result.format_name.value,
        "kernel": result.kernel_name,
        "cache_hit": bool(result.cache_hit),
        "used_fallback": bool(result.used_fallback),
        "degraded": bool(result.degraded),
        "refreshed": bool(result.refreshed),
        "retries": int(result.retries),
        "queued_seconds": float(result.queued_seconds),
        "plan_seconds": float(result.plan_seconds),
        "execute_seconds": float(result.execute_seconds),
    }


class WorkerRuntime:
    """The worker message loop, decoupled from process plumbing."""

    def __init__(
        self,
        shard_id: int,
        generation: int,
        spec: WorkerSpec,
        request_queue,
        reply_queue,
        exit_fn: Callable[[int], None] = os._exit,
    ) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self.spec = spec
        self.requests = request_queue
        self.replies = reply_queue
        self.exit_fn = exit_fn
        self.segments = SegmentCache()
        self.served = 0
        self._heartbeat_seq = 0
        faults = None
        if spec.fault_specs:
            faults = FaultPlan.parse(
                spec.fault_specs, seed=spec.fault_seed + shard_id
            )
        self.engine = ServingEngine(spec.tuner, spec.config, faults=faults)

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until shutdown.  Never raises out of the loop."""
        self.engine.start()
        self._send_heartbeat()  # the ready signal the dispatcher waits on
        last_beat = time.monotonic()
        try:
            while True:
                timeout = max(
                    0.01,
                    self.spec.heartbeat_interval
                    - (time.monotonic() - last_beat),
                )
                try:
                    message = self.requests.get(timeout=timeout)
                except queue.Empty:
                    self._send_heartbeat()
                    last_beat = time.monotonic()
                    continue
                if isinstance(message, ShutdownRequest):
                    self._shutdown(message.drain)
                    return
                self._dispatch(message)
                # A busy worker must still look alive: heartbeat between
                # messages whenever one is due, not only when idle.
                if (
                    time.monotonic() - last_beat
                    >= self.spec.heartbeat_interval
                ):
                    self._send_heartbeat()
                    last_beat = time.monotonic()
                if (
                    self.spec.crash_after is not None
                    and self.served >= self.spec.crash_after
                ):
                    self.exit_fn(13)  # simulated hard crash
                    return  # only reached with a test exit_fn
        finally:
            self.segments.close()

    def _dispatch(self, message) -> None:
        if isinstance(message, ShardRequest):
            self._serve(message)
        elif isinstance(message, DeltaShardRequest):
            self._apply_delta(message)
        elif isinstance(message, WarmRequest):
            self._warm(message)
        elif isinstance(message, InvalidateRequest):
            self._invalidate(message)
        elif isinstance(message, ModelUpdate):
            self._install_model(message)
        elif isinstance(message, CrashRequest):
            self.exit_fn(13)
        else:
            self.replies.put(
                ShardReply(
                    msg_id=getattr(message, "msg_id", -1),
                    shard_id=self.shard_id,
                    generation=self.generation,
                    ok=False,
                    error=(
                        "ServeError",
                        f"unknown message {type(message).__name__}",
                    ),
                )
            )

    # ------------------------------------------------------------------
    def _matrix_for(self, handle: PlanHandle) -> CSRMatrix:
        """Map a published operand zero-copy; validated at publish time."""
        return CSRMatrix._from_validated(
            self.segments.view(handle.ptr),
            self.segments.view(handle.indices),
            self.segments.view(handle.data),
            handle.shape,
        )

    def _serve(self, request: ShardRequest) -> None:
        try:
            if request.expires_at is not None:
                remaining = request.expires_at - time.monotonic()
                if remaining <= 0.0:
                    raise DeadlineExceededError(
                        f"deadline expired in shard {self.shard_id} queue "
                        f"({request.plan.fingerprint})"
                    )
            else:
                remaining = None
            matrix = self._matrix_for(request.plan)
            x = self.segments.view(request.x)
            result = self.engine.spmv(
                matrix,
                x,
                deadline=remaining,
                fingerprint=request.plan.fingerprint,
            )
            # The one result copy: kernel output into the caller's shared
            # response slot.  The reply itself carries no array bytes.
            np.copyto(self.segments.view(request.y), result.y)
            reply = ShardReply(
                msg_id=request.msg_id,
                shard_id=self.shard_id,
                generation=self.generation,
                ok=True,
                meta=_result_meta(result),
            )
        except BaseException as exc:
            reply = ShardReply(
                msg_id=request.msg_id,
                shard_id=self.shard_id,
                generation=self.generation,
                ok=False,
                error=(type(exc).__name__, str(exc)),
            )
        self.served += 1
        self.replies.put(reply)

    def _apply_delta(self, message: DeltaShardRequest) -> None:
        """Migrate this shard's plan across a structure delta.

        The delta arrays are mapped out of shared memory and replayed
        through the engine's migration path against the *old* published
        operand; the engine retires the pre-delta fingerprint from both
        cache tiers and patches / refreshes / retunes the plan under the
        post-delta key (which must match the dispatcher-published ``new``
        handle — the digest is content-addressed, so a disagreement means
        a corrupted delta and fails the request rather than caching under
        a wrong key).
        """
        try:
            old_matrix = self._matrix_for(message.old)
            delta = StructureDelta(
                insert_rows=np.array(self.segments.view(message.insert_rows)),
                insert_cols=np.array(self.segments.view(message.insert_cols)),
                insert_vals=np.array(self.segments.view(message.insert_vals)),
                delete_rows=np.array(self.segments.view(message.delete_rows)),
                delete_cols=np.array(self.segments.view(message.delete_cols)),
            )
            outcome = self.engine.apply_structure_delta(old_matrix, delta)
            if outcome.fingerprint != message.new.fingerprint:
                raise ServeError(
                    f"delta digest mismatch: worker computed "
                    f"{outcome.fingerprint}, dispatcher published "
                    f"{message.new.fingerprint}"
                )
            reply = DeltaShardReply(
                msg_id=message.msg_id,
                shard_id=self.shard_id,
                generation=self.generation,
                ok=True,
                policy=outcome.policy,
                old_format=(
                    outcome.old_format.value
                    if outcome.old_format is not None
                    else None
                ),
                new_format=outcome.new_format.value,
                seconds=outcome.seconds,
            )
        except BaseException as exc:
            reply = DeltaShardReply(
                msg_id=message.msg_id,
                shard_id=self.shard_id,
                generation=self.generation,
                ok=False,
                error=(type(exc).__name__, str(exc)),
            )
        self.served += 1
        self.replies.put(reply)

    def _warm(self, message: WarmRequest) -> None:
        """Rebuild plans after a respawn: one probe SpMV per structure.

        The probe operand is all-zeros, so the product is discarded
        work, but the side effect is the point: the engine runs the full
        decision + conversion once and caches the plan, exactly as the
        original cold request did in the previous incarnation.
        """
        warmed = failed = 0
        last_beat = time.monotonic()
        for handle in message.handles:
            try:
                matrix = self._matrix_for(handle)
                probe = np.zeros(matrix.n_cols, dtype=matrix.dtype)
                self.engine.spmv(
                    matrix, probe, fingerprint=handle.fingerprint
                )
                warmed += 1
            except Exception:
                failed += 1
            # A long re-warm (many plans, full builds) must not read as
            # a hung worker.
            if (
                time.monotonic() - last_beat
                >= self.spec.heartbeat_interval
            ):
                self._send_heartbeat()
                last_beat = time.monotonic()
        self.replies.put(
            WarmReply(
                shard_id=self.shard_id,
                generation=self.generation,
                warmed=warmed,
                failed=failed,
            )
        )

    def _install_model(self, message: ModelUpdate) -> None:
        """Hot-swap the engine tuner's ruleset mid-serving.

        An :class:`~repro.tuner.online.OnlineSmat` tuner takes the swap
        through ``install_model`` (epoch bump under its lock, so the
        engine's ``ruleset_swaps`` counter observes it); a plain SMAT
        gets the single-assignment model swap — decisions in flight see
        the old or the new model, never a torn one.
        """
        try:
            tuner = self.engine.tuner
            install = getattr(tuner, "install_model", None)
            if install is not None:
                install(message.model)
            else:
                tuner.model = message.model
            ok, error = True, None
        except Exception as exc:
            ok, error = False, (type(exc).__name__, str(exc))
        self.replies.put(
            ModelUpdateReply(
                shard_id=self.shard_id,
                generation=self.generation,
                epoch=message.epoch,
                ok=ok,
                error=error,
            )
        )

    def _invalidate(self, message: InvalidateRequest) -> None:
        self.engine.cache.invalidate(message.fingerprint)
        for segment in message.segments:
            self.segments.detach(segment)
        self.replies.put(
            InvalidateReply(
                shard_id=self.shard_id,
                generation=self.generation,
                fingerprint=message.fingerprint,
                segments=message.segments,
            )
        )

    # ------------------------------------------------------------------
    def _send_heartbeat(self) -> None:
        self._heartbeat_seq += 1
        self.replies.put(
            Heartbeat(
                shard_id=self.shard_id,
                generation=self.generation,
                seq=self._heartbeat_seq,
                served=self.served,
                queue_depth=self._queue_depth(),
                metrics=self.engine.metrics.snapshot(),
                cache_stats=self.engine.cache.stats(),
            )
        )

    def _queue_depth(self) -> int:
        try:
            return int(self.requests.qsize())
        except (NotImplementedError, OSError):  # pragma: no cover - macOS
            return -1

    def _shutdown(self, drain: bool) -> None:
        """Graceful exit: serve the backlog (with ``drain``), then report."""
        if drain:
            while True:
                try:
                    message = self.requests.get_nowait()
                except queue.Empty:
                    break
                if isinstance(message, ShutdownRequest):
                    continue
                self._dispatch(message)
        self.engine.stop(drain=drain)
        self.replies.put(
            WorkerExit(
                shard_id=self.shard_id,
                generation=self.generation,
                served=self.served,
                metrics=self.engine.metrics.snapshot(),
                cache_stats=self.engine.cache.stats(),
            )
        )


def worker_main(
    shard_id: int,
    generation: int,
    spec: WorkerSpec,
    request_queue,
    reply_queue,
) -> None:
    """Spawn entry point for one shard worker process.

    Refuses to run under ``fork``: a forked child inherits the parent's
    metrics registries, lock states and pool threads mid-flight, which
    breaks both the snapshot-merge contract (registries must start at
    zero) and thread-safety assumptions.  The dispatcher always uses the
    ``spawn`` context; this check catches anyone wiring the entry point
    up by hand.
    """
    method = multiprocessing.get_start_method(allow_none=True)
    if method == "fork":
        raise ServeError(
            "cluster workers must be started with the 'spawn' start "
            "method (fork would duplicate live registries and locks); "
            "use ClusterDispatcher, which enforces this"
        )
    WorkerRuntime(shard_id, generation, spec, request_queue, reply_queue).run()


def train_default_tuner(
    platform_name: str = "intel",
    train_scale: float = 0.05,
    size_scale: float = 0.4,
    seed: int = 2013,
):
    """A deterministic tuner for cluster workers (serve-bench, tests).

    Training is seeded, so every worker given the same arguments — or
    the dispatcher training once and shipping the pickled result — ends
    up with an identical ruleset, and routing decides *where* a plan is
    built, never *what* it decides.
    """
    from repro.collection import generate_collection
    from repro.machine import SimulatedBackend, platform
    from repro.tuner import SMAT
    from repro.types import Precision

    backend = SimulatedBackend(platform(platform_name), Precision("double"))
    return SMAT.train(
        generate_collection(seed=seed, scale=train_scale, size_scale=size_scale),
        backend=backend,
    )
