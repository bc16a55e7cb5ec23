"""The plan cache: tuned plans keyed by fingerprint.

This is where SMAT's amortization story (Table 3) becomes a serving
guarantee: feature extraction, rule walking and format conversion run once
per distinct matrix; every further request for the same fingerprint reuses
the stored :class:`~repro.tuner.plan.Plan` and pays only the kernel
execution.

Eviction is LRU under an entry cap.  ``invalidate`` exists for callers
that mutate a matrix in place and know its fingerprint no longer
describes it.

Alongside the value-keyed store sits a structure index (tier 2): for every
resident plan, its fingerprint's
:class:`~repro.serve.fingerprint.StructureKey` maps to that fingerprint,
latest admission winning.  ``get_by_structure`` answers "is there *any*
resident plan with this sparsity structure?" — the question the engine's
value-refresh fast path asks on a tier-1 miss.  The index holds no plans
of its own, and entries leave the index exactly when their plan leaves the
store.

All operations are O(1) under one lock; the cache is shared by every
engine worker.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.serve.fingerprint import Fingerprint, StructureKey
from repro.tuner.plan import Plan


class PlanCache:
    """A thread-safe LRU cache of :class:`~repro.tuner.plan.Plan` objects
    keyed by :class:`~repro.serve.fingerprint.Fingerprint`."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Fingerprint, Plan]" = OrderedDict()
        # Tier-2 index: structure key -> fingerprint of the most recently
        # admitted resident plan with that sparsity structure.
        self._structures: Dict[StructureKey, Fingerprint] = {}
        # Storage of the resident converted matrices (padding included).
        self._bytes = 0
        self._evictions = 0
        self._structure_hits = 0

    # ------------------------------------------------------------------
    def get(self, key: Fingerprint) -> Optional[Plan]:
        """The cached plan for ``key``, refreshing its recency; else None."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def get_by_structure(self, structure: StructureKey) -> Optional[Plan]:
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

    def put(self, key: Fingerprint, plan: Plan) -> None:
        """Admit ``plan`` under ``key``, evicting LRU entries to fit.

        Re-inserting an existing key replaces the stored plan (the
        invalidate-then-retune path).
        """
        with self._lock:
            old = self._plans.pop(key, None)
            if old is not None:
                self._bytes -= old.matrix.memory_bytes()
            self._plans[key] = plan
            self._bytes += plan.matrix.memory_bytes()
            if key.structure_key is not None:
                self._structures[key.structure_key] = key
            while len(self._plans) > self.max_entries:
                evicted_key, evicted = self._plans.popitem(last=False)
                self._bytes -= evicted.matrix.memory_bytes()
                self._evictions += 1
                self._unlink_structure(evicted_key)

    def invalidate(self, key: Fingerprint) -> bool:
        """Drop one plan (e.g. its matrix was mutated in place)."""
        with self._lock:
            plan = self._plans.pop(key, None)
            if plan is None:
                return False
            self._bytes -= plan.matrix.memory_bytes()
            self._unlink_structure(key)
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

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "bytes": self._bytes,
                "evictions": self._evictions,
                "structure_entries": len(self._structures),
                "structure_hits": self._structure_hits,
            }
