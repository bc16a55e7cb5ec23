"""The dispatcher <-> worker wire protocol, and its zero-copy guard.

Every message that crosses a process boundary is defined here, and the
design rule is singular: **no NumPy array ever rides in a message**.
Operand matrices, request vectors and response vectors travel as
:class:`~repro.cluster.sharedmem.SharedArrayRef` descriptors into shared
segments; the queue pickles a few hundred bytes of metadata per request
regardless of matrix size.  :func:`ndarray_payload_bytes` is the
enforcement hook — the dispatcher measures every outbound message with
it (the ``operand_bytes_pickled`` counter the acceptance gate reads),
and the guard test walks message trees directly.

Requests and replies correlate by ``msg_id``; a reply also names the
worker *generation* that produced it, so replies from a worker that
crashed and was respawned mid-flight cannot be attributed to the wrong
incarnation's outstanding set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.sharedmem import SharedArrayRef
from repro.serve.fingerprint import Fingerprint


@dataclass(frozen=True)
class PlanHandle:
    """A published CSR operand: three shared arrays plus identity.

    ``fingerprint`` carries the dispatcher-computed digest so workers
    skip re-hashing the arrays they just mapped.
    """

    fingerprint: Fingerprint
    ptr: SharedArrayRef
    indices: SharedArrayRef
    data: SharedArrayRef
    shape: Tuple[int, int]

    @property
    def operand_bytes(self) -> int:
        return self.ptr.nbytes + self.indices.nbytes + self.data.nbytes


@dataclass(frozen=True)
class ShardRequest:
    """One SpMV to execute: operand by reference, vectors by reference."""

    msg_id: int
    plan: PlanHandle
    x: SharedArrayRef
    y: SharedArrayRef
    #: Absolute monotonic expiry (CLOCK_MONOTONIC is machine-wide on
    #: Linux, so dispatcher and worker read the same clock); None = none.
    expires_at: Optional[float] = None


@dataclass(frozen=True)
class WarmRequest:
    """Respawn re-warm: rebuild plans for these structures, no request."""

    handles: Tuple[PlanHandle, ...]


@dataclass(frozen=True)
class InvalidateRequest:
    """Drop the plan (and any segment mapping) for one fingerprint."""

    fingerprint: Fingerprint
    #: Segments the worker should unmap once the plan is dropped.
    segments: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DeltaShardRequest:
    """Migrate a shard's plan across a structure delta, descriptor-only.

    ``old`` and ``new`` are the published pre- and post-delta operands
    (the dispatcher owns the authoritative CSR, so it applies the edge
    edits once, publishes the result, and ships *descriptors*); the five
    delta arrays ride as :class:`SharedArrayRef` like every other array
    in the protocol, so a million-edge delta still pickles to a few
    hundred bytes.  The worker replays the delta through its engine's
    :meth:`~repro.serve.ServingEngine.apply_structure_delta`, which
    retires the old fingerprint from both cache tiers and migrates the
    resident plan by the patch / refresh / retune policy.
    """

    msg_id: int
    old: PlanHandle
    new: PlanHandle
    insert_rows: SharedArrayRef
    insert_cols: SharedArrayRef
    insert_vals: SharedArrayRef
    delete_rows: SharedArrayRef
    delete_cols: SharedArrayRef


@dataclass(frozen=True)
class DeltaShardReply:
    """How the worker migrated its plan (policy + timings, no arrays)."""

    msg_id: int
    shard_id: int
    generation: int
    ok: bool
    error: Optional[Tuple[str, str]] = None
    #: "patch" | "refresh" | "retune" when ok.
    policy: Optional[str] = None
    old_format: Optional[str] = None
    new_format: Optional[str] = None
    seconds: float = 0.0


@dataclass(frozen=True)
class ShutdownRequest:
    """Stop the worker; with ``drain`` it serves its backlog first."""

    drain: bool = True


@dataclass(frozen=True)
class ModelUpdate:
    """Hot-swap the worker engine's tuner ruleset without a restart.

    Carries the retrained :class:`~repro.learning.model.LearningModel`
    itself — nested plain dataclasses of rules and thresholds with no
    NumPy arrays, so pickling it keeps the zero-copy operand invariant
    (``ndarray_payload_bytes`` stays 0).  ``epoch`` is the dispatcher's
    monotonic push counter, echoed in the reply so acks can be matched
    to pushes.
    """

    model: object
    epoch: int


@dataclass(frozen=True)
class ModelUpdateReply:
    """The worker swapped (or failed to swap) its ruleset."""

    shard_id: int
    generation: int
    epoch: int
    ok: bool
    error: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class CrashRequest:
    """Test-only: die immediately and uncleanly (``os._exit``)."""


@dataclass(frozen=True)
class ShardReply:
    """Outcome of one :class:`ShardRequest`."""

    msg_id: int
    shard_id: int
    generation: int
    ok: bool
    #: ``(exception_class_name, message)`` when not ok.
    error: Optional[Tuple[str, str]] = None
    #: Picklable slice of the worker-side ServeResult.
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class WarmReply:
    """How many plans a re-warm rebuilt (and how many failed)."""

    shard_id: int
    generation: int
    warmed: int
    failed: int


@dataclass(frozen=True)
class InvalidateReply:
    """The worker dropped the plan; its segment slots may be reused."""

    shard_id: int
    generation: int
    fingerprint: Fingerprint
    segments: Tuple[str, ...]


@dataclass(frozen=True)
class Heartbeat:
    """Periodic worker liveness + its cumulative metrics snapshot.

    ``metrics`` is the worker registry's *cumulative* snapshot (never a
    delta), so the dispatcher aggregates by keeping the latest snapshot
    per (shard, generation) — replays and repeats cannot double count.
    """

    shard_id: int
    generation: int
    seq: int
    served: int
    queue_depth: int
    metrics: Optional[Dict[str, Dict]] = None
    cache_stats: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class WorkerExit:
    """Clean shutdown acknowledgement with the final metrics snapshot."""

    shard_id: int
    generation: int
    served: int
    metrics: Optional[Dict[str, Dict]] = None
    cache_stats: Optional[Dict[str, float]] = None


def ndarray_payload_bytes(message: object) -> int:
    """Total bytes of NumPy array data reachable from ``message``.

    Walks dataclasses, dicts, lists, tuples and sets.  The dispatcher
    charges this against the ``operand_bytes_pickled`` counter for every
    message it enqueues; the zero-copy invariant is that the counter
    stays at zero over any workload.
    """
    total = 0
    stack = [message]
    seen = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += int(obj.nbytes)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(
                getattr(obj, f.name) for f in dataclasses.fields(obj)
            )
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return total
