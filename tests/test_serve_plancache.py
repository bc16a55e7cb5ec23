"""Plan-cache tests: LRU under an entry cap, byte accounting,
invalidation, thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.serve import PlanCache, fingerprint
from repro.tuner.plan import Plan
from repro.tuner.runtime import Decision
from repro.types import FormatName

from tests.conftest import random_csr


def _plan(matrix: CSRMatrix, kernel) -> Plan:
    decision = Decision(
        format_name=FormatName.CSR,
        kernel=kernel,
        confidence=1.0,
        matched_rule=None,
        used_fallback=False,
        predicted_format=FormatName.CSR,
        matrix=matrix,
    )
    return Plan.of(decision)


def _keyed(matrix: CSRMatrix, kernel):
    return fingerprint(matrix), _plan(matrix, kernel)


@pytest.fixture(scope="module")
def csr_kernel():
    from repro.kernels.base import kernels_for

    return kernels_for(FormatName.CSR)[0]


@pytest.fixture()
def matrices(rng):
    return [random_csr(rng, n_rows=30 + i) for i in range(8)]


class TestBasics:
    def test_get_miss_then_hit(self, matrices, csr_kernel) -> None:
        cache = PlanCache(max_entries=4)
        key, plan = _keyed(matrices[0], csr_kernel)
        assert cache.get(key) is None
        cache.put(key, plan)
        assert cache.get(key) is plan
        assert key in cache and len(cache) == 1

    def test_plan_executes(self, matrices, csr_kernel) -> None:
        matrix = matrices[0]
        plan = _plan(matrix, csr_kernel)
        x = np.ones(matrix.n_cols)
        np.testing.assert_allclose(plan(x), matrix.spmv(x), atol=1e-9)

    def test_requires_converted_matrix(self, csr_kernel) -> None:
        decision = Decision(
            format_name=FormatName.CSR,
            kernel=csr_kernel,
            confidence=1.0,
            matched_rule=None,
            used_fallback=False,
            predicted_format=FormatName.CSR,
            matrix=None,
        )
        with pytest.raises(ValueError, match="converted matrix"):
            Plan.of(decision)

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(max_entries=0)


class TestLru:
    def test_entry_cap_evicts_lru(self, matrices, csr_kernel) -> None:
        cache = PlanCache(max_entries=3)
        plans = [_keyed(m, csr_kernel) for m in matrices[:4]]
        for key, plan in plans[:3]:
            cache.put(key, plan)
        cache.get(plans[0][0])  # refresh 0: now 1 is LRU
        cache.put(*plans[3])
        assert plans[1][0] not in cache
        assert plans[0][0] in cache
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 1

    def test_reinsert_replaces(self, matrices, csr_kernel) -> None:
        cache = PlanCache(max_entries=4)
        key, first = _keyed(matrices[0], csr_kernel)
        second = _plan(matrices[0], csr_kernel)
        cache.put(key, first)
        cache.put(key, second)
        assert len(cache) == 1
        assert cache.get(key) is second
        assert cache.bytes_used == second.matrix.memory_bytes()


class TestInvalidation:
    def test_invalidate_and_clear(self, matrices, csr_kernel) -> None:
        cache = PlanCache(max_entries=8)
        plans = [_keyed(m, csr_kernel) for m in matrices[:3]]
        for key, plan in plans:
            cache.put(key, plan)
        assert cache.invalidate(plans[1][0])
        assert not cache.invalidate(plans[1][0])
        assert plans[1][0] not in cache
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.bytes_used == 0


class TestThreadSafety:
    def test_concurrent_put_get_invalidate(self, csr_kernel, rng) -> None:
        matrices = [random_csr(rng, n_rows=20 + i) for i in range(16)]
        plans = [_keyed(m, csr_kernel) for m in matrices]
        cache = PlanCache(max_entries=8)
        errors = []

        def worker(seed: int) -> None:
            local = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    key, plan = plans[int(local.integers(len(plans)))]
                    op = int(local.integers(3))
                    if op == 0:
                        cache.put(key, plan)
                    elif op == 1:
                        got = cache.get(key)
                        assert got is None or got is plan
                    else:
                        cache.invalidate(key)
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats["bytes"] == sum(
            plan.matrix.memory_bytes()
            for key, plan in plans
            if key in cache
        )
