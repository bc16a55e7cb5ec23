"""The plan cache: tuned decisions + converted matrices, keyed by fingerprint.

This is where SMAT's amortization story (Table 3) becomes a serving
guarantee: feature extraction, rule walking and format conversion run once
per distinct matrix; every further request for the same fingerprint reuses
the stored :class:`CachedPlan` and pays only the kernel execution.

Eviction is LRU under two budgets — an entry cap and an optional byte cap
over the converted matrices' storage (``memory_bytes()`` includes padding,
so a cached ELL plan is charged for its zero fill).  A plan larger than the
whole byte budget is simply never admitted; the engine still serves it,
uncacheable.  ``invalidate`` exists for callers that mutate a matrix in
place and know its fingerprint no longer describes it.

Alongside the value-keyed store sits a structure index (tier 2): for every
resident plan, the plan's :class:`~repro.serve.fingerprint.StructureKey`
maps to its fingerprint, latest admission winning.  ``get_by_structure``
answers "is there *any* resident plan with this sparsity structure?" — the
question the engine's value-refresh fast path asks on a tier-1 miss.  The
index holds no matrices of its own, so the byte budget is shared across
both tiers by construction, and entries leave the index exactly when their
plan leaves the store.

Each plan also carries its :class:`SpmmVerdicts`: per power-of-two
width, whether one SpMM beat k calls of the plan's serving kernel on
live groups, which is what decides whether the engine stacks a
same-fingerprint group.

All operations are O(1) under one lock; the cache is shared by every
engine worker.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kernels.spmm import spmm_fallback, spmm_kernel_for
from repro.serve.fingerprint import Fingerprint, StructureKey
from repro.tuner.runtime import Decision

#: Timings each path needs before a width bucket's verdict is settled.
#: One of each let a single noisy group pick a plan's path for good.
VERDICT_SAMPLES = 3


def width_bucket(k: int) -> int:
    """The power-of-two bucket of a k-RHS group: 2-3 -> 2, 4-7 -> 4, ..."""
    return 1 << (k.bit_length() - 1)


class SpmmVerdicts:
    """Per width bucket: does one SpMM beat k calls of the serving kernel?

    Stacking a group saves operand traffic, but the serving kernel is
    often compiled for this very structure while the SpMM kernel is
    generic and pays for the stacking and its k-wide gathers.  Which path
    wins depends on the plan and the width, so no fixed k* per format is
    right.  The verdict is measured on live groups: while a bucket is
    open its groups alternate between the two paths, each group running
    exactly one of them, until each path has ``VERDICT_SAMPLES`` per-RHS
    timings.  The path with the lower minimum then serves every later
    group in that bucket.  Nothing is measured at plan build.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: bucket -> groups routed (stacked, per request) while open.
        self._routed: Dict[int, List[int]] = {}
        #: bucket -> per-RHS seconds (stacked, per request) while open.
        self._samples: Dict[int, Tuple[List[float], List[float]]] = {}
        #: bucket -> settled verdict (True stacks).
        self._stack: Dict[int, bool] = {}

    def choose(self, k: int) -> Tuple[bool, bool]:
        """(stack this k-RHS group?, is it a measurement?)."""
        bucket = width_bucket(k)
        with self._lock:
            stack = self._stack.get(bucket)
            if stack is not None:
                return stack, False
            routed = self._routed.setdefault(bucket, [0, 0])
            stack = routed[0] <= routed[1]
            routed[0 if stack else 1] += 1
            return stack, True

    def record(self, k: int, stacked: bool, per_rhs: float) -> None:
        """Add one measured group's per-RHS seconds to its bucket."""
        bucket = width_bucket(k)
        with self._lock:
            if bucket in self._stack:
                return
            samples = self._samples.setdefault(bucket, ([], []))
            samples[0 if stacked else 1].append(per_rhs)
            if min(map(len, samples)) >= VERDICT_SAMPLES:
                self._stack[bucket] = min(samples[0]) < min(samples[1])
                del self._samples[bucket]
                self._routed.pop(bucket, None)

    def settled(self) -> Dict[int, bool]:
        """Settled verdicts by bucket (True: the bucket's groups stack)."""
        with self._lock:
            return dict(self._stack)


@dataclass
class CachedPlan:
    """One tuned, ready-to-execute SpMV plan.

    ``decision.matrix`` holds the matrix already converted to the chosen
    format; executing the plan is a single kernel call.
    """

    key: Fingerprint
    decision: Decision
    #: Storage footprint of the converted matrix (padding included).
    matrix_bytes: int
    hits: int = field(default=0)
    #: Per-width verdicts on stacking a same-fingerprint group into one
    #: SpMM.  A tier-2 refresh shares its donor's verdicts (same
    #: structure, same kernels); a structure delta or a fresh build
    #: starts new ones.
    verdicts: SpmmVerdicts = field(default_factory=SpmmVerdicts)

    def __post_init__(self) -> None:
        if self.decision.matrix is None:
            raise ValueError("a CachedPlan needs the converted matrix")

    @property
    def kernel(self):
        """The callable products run: the decision's compiled codegen
        artifact when one is attached, else its registry kernel.  The
        compiled kernel folds only *structure*, so it stays valid across
        ``refresh_values`` — tier-2 refreshed plans inherit it for free —
        while a structure delta drops it and re-specializes.
        """
        return self.decision.serving_kernel

    def execute(self, x):
        """Run the plan's kernel on one operand vector."""
        return self.kernel(self.decision.matrix, x)

    @property
    def native_spmm(self) -> bool:
        """True when the converted format has a multi-RHS kernel.  The
        engine stacks groups only for such plans: anywhere else SpMM is
        the serving kernel run column by column, which cannot win."""
        return spmm_kernel_for(self.decision.matrix.format_name) is not None

    def spmm(self, X):
        """Run the plan on a column-stacked RHS block ``(n_cols, k)``.

        Formats with a native multi-RHS kernel make one pass over the
        converted operand; everything else (HYB/BCSR/...) degrades to
        column-by-column calls of the plan's own serving kernel — same
        results, no amortisation.
        """
        matrix = self.decision.matrix
        kernel = spmm_kernel_for(matrix.format_name)
        if kernel is not None:
            return kernel(matrix, X)
        plan_kernel = self.kernel
        return spmm_fallback(
            matrix, X, spmv=lambda col: plan_kernel(matrix, col)
        )


class PlanCache:
    """A thread-safe LRU cache of :class:`CachedPlan` objects."""

    def __init__(
        self,
        max_entries: int = 128,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Fingerprint, CachedPlan]" = OrderedDict()
        # Tier-2 index: structure key -> fingerprint of the most recently
        # admitted resident plan with that sparsity structure.
        self._structures: Dict[StructureKey, Fingerprint] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0
        self._structure_hits = 0

    # ------------------------------------------------------------------
    def get(
        self, key: Fingerprint, record_stats: bool = True
    ) -> Optional[CachedPlan]:
        """The cached plan for ``key``, refreshing its recency; else None.

        ``record_stats=False`` still refreshes LRU recency but leaves the
        hit/miss statistics alone — for the engine's single-flight
        double-check, which would otherwise count one miss twice.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                if record_stats:
                    self._misses += 1
                return None
            self._plans.move_to_end(key)
            if record_stats:
                self._hits += 1
            plan.hits += 1
            return plan

    def get_by_structure(
        self, structure: StructureKey
    ) -> Optional[CachedPlan]:
        """The resident plan sharing this sparsity structure, if any.

        This is the tier-2 lookup: the caller's exact fingerprint missed,
        but a plan for the same structure (different values) may still be
        resident — its decision carries over and only its value arrays
        need refreshing.  A hit refreshes the donor plan's LRU recency so
        a value-churn workload cannot evict its own structure donor.
        """
        with self._lock:
            key = self._structures.get(structure)
            if key is None:
                return None
            plan = self._plans.get(key)
            if plan is None:  # defensive: evictions unlink eagerly
                del self._structures[structure]
                return None
            self._plans.move_to_end(key)
            self._structure_hits += 1
            return plan

    def put(self, plan: CachedPlan) -> bool:
        """Admit ``plan``, evicting LRU entries to fit; False if too large.

        Re-inserting an existing key replaces the stored plan (the
        invalidate-then-retune path).
        """
        with self._lock:
            if (
                self.max_bytes is not None
                and plan.matrix_bytes > self.max_bytes
            ):
                self._rejected += 1
                return False
            old = self._plans.pop(plan.key, None)
            if old is not None:
                self._bytes -= old.matrix_bytes
            self._plans[plan.key] = plan
            self._bytes += plan.matrix_bytes
            skey = plan.key.structure_key
            if skey is not None:
                self._structures[skey] = plan.key
            while len(self._plans) > self.max_entries or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                _, evicted = self._plans.popitem(last=False)
                self._bytes -= evicted.matrix_bytes
                self._evictions += 1
                self._unlink_structure(evicted.key)
            return True

    def invalidate(self, key: Fingerprint) -> bool:
        """Drop one plan (e.g. its matrix was mutated in place)."""
        with self._lock:
            plan = self._plans.pop(key, None)
            if plan is None:
                return False
            self._bytes -= plan.matrix_bytes
            self._unlink_structure(plan.key)
            return True

    def clear(self) -> int:
        """Drop everything; returns how many plans were dropped."""
        with self._lock:
            dropped = len(self._plans)
            self._plans.clear()
            self._structures.clear()
            self._bytes = 0
            return dropped

    def _unlink_structure(self, key: Fingerprint) -> None:
        """Drop the tier-2 entry iff it still points at ``key``; caller
        holds the lock.  A later plan with the same structure may have
        taken over the index slot — that mapping must survive."""
        skey = key.structure_key
        if skey is not None and self._structures.get(skey) == key:
            del self._structures[skey]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: Fingerprint) -> bool:
        with self._lock:
            return key in self._plans

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            total = self._hits + self._misses
            return {
                "entries": len(self._plans),
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / total if total else 0.0,
                "evictions": self._evictions,
                "rejected": self._rejected,
                "structure_entries": len(self._structures),
                "structure_hits": self._structure_hits,
            }
