"""Tier-2 structure-cache tests: the structure key, the plan cache's
structure index, and the engine's value-refresh fast path.

The acceptance scenario: a value-churn workload — one sparsity structure,
>= 16 value updates — pays feature extraction and format conversion
exactly once; every later update is a tier-1 miss that resolves as a
tier-2 hit, refreshing the cached plan's value arrays in place of a full
rebuild.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import banded, generate_collection
from repro.features.extract import EXTRACTION_EVENTS
from repro.formats.convert import CONVERSION_EVENTS
from repro.formats.csr import CSRMatrix
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import (
    FaultPlan,
    FaultRule,
    PlanCache,
    ServeConfig,
    ServingEngine,
    StructureKey,
    fingerprint,
    structural_digest,
)
from repro.tuner import SMAT
from repro.tuner.plan import Plan
from repro.tuner.runtime import Decision
from repro.types import FormatName, Precision

from tests.conftest import random_csr

#: The acceptance floor: a churn of at least this many value updates.
CHURN_UPDATES = 16


@pytest.fixture(scope="module")
def smat() -> SMAT:
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


def _churn(matrix: CSRMatrix, updates: int, seed: int = 4):
    """``updates`` CSR variants sharing ``matrix``'s structure."""
    rng = np.random.default_rng(seed)
    out = [matrix]
    for _ in range(updates - 1):
        data = rng.standard_normal(matrix.nnz).astype(matrix.dtype)
        out.append(
            CSRMatrix(matrix.ptr, matrix.indices, data, matrix.shape)
        )
    return out


class TestStructureKey:
    def test_fork_matches_structural_digest(self, rng) -> None:
        matrix = random_csr(rng)
        fp = fingerprint(matrix)
        assert fp.structural == structural_digest(matrix)
        assert fp.structure_key == StructureKey(
            shape=matrix.shape,
            nnz=matrix.nnz,
            dtype=str(matrix.dtype),
            digest=fp.structural,
        )

    def test_same_structure_new_values_share_key(self, rng) -> None:
        base = random_csr(rng)
        churned = _churn(base, 2)[1]
        a, b = fingerprint(base), fingerprint(churned)
        assert a != b  # tier-1 keys diverge on values...
        assert a.structure_key == b.structure_key  # ...tier-2 keys agree

    def test_structure_change_changes_key(self, rng) -> None:
        base = random_csr(rng)
        dense = base.to_dense()
        r, c = np.argwhere(dense == 0)[0]
        dense[r, c] = 1.0
        other = CSRMatrix.from_dense(dense)
        assert (
            fingerprint(base).structure_key
            != fingerprint(other).structure_key
        )

    def test_structure_key_is_hashable_and_printable(self, rng) -> None:
        key = fingerprint(random_csr(rng)).structure_key
        assert key in {key}
        assert "/~" in str(key)  # the "~" marks a structure-only digest


def _put(cache: PlanCache, matrix: CSRMatrix, kernel):
    """Admit a CSR plan for ``matrix``; returns ``(key, plan)``."""
    decision = Decision(
        format_name=FormatName.CSR,
        kernel=kernel,
        confidence=1.0,
        matched_rule=None,
        used_fallback=False,
        predicted_format=FormatName.CSR,
        matrix=matrix,
    )
    key, plan = fingerprint(matrix), Plan.of(decision)
    cache.put(key, plan)
    return key, plan


@pytest.fixture(scope="module")
def csr_kernel():
    from repro.kernels.base import kernels_for

    return kernels_for(FormatName.CSR)[0]


class TestStructureIndex:
    def test_get_by_structure_finds_value_sibling(
        self, rng, csr_kernel
    ) -> None:
        cache = PlanCache(max_entries=4)
        base, churned = _churn(random_csr(rng), 2)
        _, plan = _put(cache, base, csr_kernel)
        skey = fingerprint(churned).structure_key
        assert cache.get(fingerprint(churned)) is None  # tier-1 miss
        assert cache.get_by_structure(skey) is plan  # tier-2 hit
        assert cache.stats()["structure_hits"] == 1
        assert cache.stats()["structure_entries"] == 1

    def test_latest_admission_wins_the_index_slot(
        self, rng, csr_kernel
    ) -> None:
        cache = PlanCache(max_entries=4)
        base, churned, probe = _churn(random_csr(rng), 3)
        _put(cache, base, csr_kernel)
        _, second = _put(cache, churned, csr_kernel)
        skey = fingerprint(probe).structure_key
        assert cache.get_by_structure(skey) is second
        assert cache.stats()["structure_entries"] == 1

    def test_eviction_unlinks_the_index(self, rng, csr_kernel) -> None:
        cache = PlanCache(max_entries=1)
        a_key, _ = _put(cache, random_csr(rng, n_rows=30), csr_kernel)
        b_key, b = _put(cache, random_csr(rng, n_rows=31), csr_kernel)
        # Admitting b evicted a.
        assert cache.get_by_structure(a_key.structure_key) is None
        assert cache.get_by_structure(b_key.structure_key) is b
        assert cache.stats()["structure_entries"] == 1

    def test_eviction_keeps_a_successors_index_entry(
        self, rng, csr_kernel
    ) -> None:
        """Evicting an old plan must not drop the index entry its value
        sibling took over."""
        cache = PlanCache(max_entries=2)
        base, churned = _churn(random_csr(rng), 2)
        old_key, _ = _put(cache, base, csr_kernel)
        # The sibling takes over the shared structure slot, then a third
        # plan evicts the old one.
        _, new = _put(cache, churned, csr_kernel)
        _put(cache, random_csr(rng, n_rows=33), csr_kernel)
        assert cache.get_by_structure(old_key.structure_key) is new

    def test_invalidate_unlinks(self, rng, csr_kernel) -> None:
        cache = PlanCache(max_entries=4)
        key, _ = _put(cache, random_csr(rng), csr_kernel)
        assert cache.invalidate(key)
        assert cache.get_by_structure(key.structure_key) is None
        assert cache.stats()["structure_entries"] == 0

    def test_clear_empties_the_index(self, rng, csr_kernel) -> None:
        cache = PlanCache(max_entries=4)
        _put(cache, random_csr(rng), csr_kernel)
        cache.clear()
        assert cache.stats()["structure_entries"] == 0

    def test_tier2_hit_refreshes_donor_recency(
        self, rng, csr_kernel
    ) -> None:
        """A churn workload must not evict its own structure donor."""
        cache = PlanCache(max_entries=2)
        donor_key, donor = _put(cache, random_csr(rng, n_rows=30), csr_kernel)
        other_key, _ = _put(cache, random_csr(rng, n_rows=31), csr_kernel)
        # The donor is now LRU; the tier-2 hit makes it MRU.
        assert cache.get_by_structure(donor_key.structure_key) is donor
        _put(cache, random_csr(rng, n_rows=32), csr_kernel)
        # ``other`` was evicted, not the freshly-used donor.
        assert cache.get(donor_key) is donor
        assert cache.get(other_key) is None


class TestEngineValueChurn:
    def test_churn_extracts_and_converts_exactly_once(self, smat) -> None:
        variants = _churn(banded.banded_matrix(3000, 7, seed=3),
                          CHURN_UPDATES + 1)
        x = np.ones(3000)
        with ServingEngine(smat, ServeConfig(workers=2)) as engine:
            extractions = EXTRACTION_EVENTS.count
            conversions = CONVERSION_EVENTS.count
            results = [engine.spmv(m, x) for m in variants]
            counters = engine.metrics.snapshot()["counters"]
            stats = engine.cache.stats()
        # The whole churn pays one feature extraction and one conversion:
        # the base build.  Every refresh reuses structure and rule walk.
        assert EXTRACTION_EVENTS.delta_since(extractions) == 1
        assert CONVERSION_EVENTS.delta_since(conversions) == 1
        assert counters["plans_built"] == 1
        assert counters["plans_refreshed"] == CHURN_UPDATES
        assert counters["structure_hits"] == CHURN_UPDATES
        assert counters["plan_refresh_failures"] == 0
        assert stats["structure_entries"] == 1
        assert not results[0].refreshed
        assert all(r.refreshed for r in results[1:])
        for matrix, result in zip(variants, results):
            np.testing.assert_allclose(
                result.y, matrix.spmv(x), atol=1e-9
            )

    def test_refreshed_products_bitwise_match_direct_tuning(
        self, smat
    ) -> None:
        variants = _churn(banded.banded_matrix(1000, 5, seed=8), 4)
        x = np.ones(1000)
        with ServingEngine(smat, ServeConfig(workers=2)) as engine:
            for matrix in variants:
                served = engine.spmv(matrix, x).y
                direct, _ = smat.spmv(matrix, x)
                assert np.array_equal(served, direct)

    def test_tier1_still_hits_after_refresh(self, smat) -> None:
        base, churned = _churn(banded.banded_matrix(1000, 5, seed=8), 2)
        x = np.ones(1000)
        with ServingEngine(smat, ServeConfig(workers=2)) as engine:
            engine.spmv(base, x)
            first = engine.spmv(churned, x)
            second = engine.spmv(churned, x)
            counters = engine.metrics.snapshot()["counters"]
        assert first.refreshed and not first.cache_hit
        assert second.cache_hit and not second.refreshed
        assert counters["plans_refreshed"] == 1

    def test_structure_cache_off_rebuilds_every_update(self, smat) -> None:
        variants = _churn(banded.banded_matrix(1000, 5, seed=8), 6)
        x = np.ones(1000)
        config = ServeConfig(workers=2, structure_cache=False)
        with ServingEngine(smat, config) as engine:
            extractions = EXTRACTION_EVENTS.count
            results = [engine.spmv(m, x) for m in variants]
            counters = engine.metrics.snapshot()["counters"]
        assert EXTRACTION_EVENTS.delta_since(extractions) == len(variants)
        assert counters["plans_built"] == len(variants)
        assert counters["plans_refreshed"] == 0
        assert not any(r.refreshed for r in results)

    def test_refresh_fault_falls_back_to_full_build(self, smat) -> None:
        faults = FaultPlan([FaultRule(site="refresh")])
        variants = _churn(banded.banded_matrix(1000, 5, seed=8), 4)
        x = np.ones(1000)
        with ServingEngine(
            smat, ServeConfig(workers=2), faults=faults
        ) as engine:
            results = [engine.spmv(m, x) for m in variants]
            counters = engine.metrics.snapshot()["counters"]
        # Every refresh attempt was injected with a fault; each fell back
        # to a full (correct) build and the request still succeeded.
        assert counters["plan_refresh_failures"] == len(variants) - 1
        assert counters["plans_refreshed"] == 0
        assert counters["plans_built"] == len(variants)
        for matrix, result in zip(variants, results):
            np.testing.assert_allclose(
                result.y, matrix.spmv(x), atol=1e-9
            )

    def test_scoreboard_reports_structure_hits(self, smat) -> None:
        variants = _churn(banded.banded_matrix(1000, 5, seed=8), 3)
        x = np.ones(1000)
        with ServingEngine(smat, ServeConfig(workers=2)) as engine:
            for matrix in variants:
                engine.spmv(matrix, x)
            board = engine.scoreboard()
        assert "structure hits 2" in board
