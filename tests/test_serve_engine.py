"""Serving-engine tests: correctness, amortization, batching, backpressure,
lifecycle, plan-resolution counter conservation, and the acceptance stress
test (4 threads x 200+ mixed requests over 20+ distinct matrices)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.collection import generate_collection
from repro.errors import BackpressureError, ServeError
from repro.features.extract import EXTRACTION_EVENTS
from repro.formats.convert import CONVERSION_EVENTS
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import (
    FaultPlan,
    FaultRule,
    ServeConfig,
    ServingEngine,
    build_matrix_pool,
    fingerprint,
    popularity_schedule,
    replay,
    schedule_ops,
)
from repro.serve.engine import _Request, _SubmissionQueue
from repro.tuner import SMAT, OnlineSmat, SmatConfig
from repro.types import INDEX_DTYPE, Precision

from tests.conftest import DecideOnlyTuner, random_csr


@pytest.fixture(scope="module")
def smat() -> SMAT:
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


@pytest.fixture()
def engine(smat):
    with ServingEngine(smat, ServeConfig(workers=2)) as running:
        yield running


class TestCorrectness:
    def test_result_is_bitwise_identical_to_direct_spmv(
        self, smat, engine, rng
    ) -> None:
        matrix = random_csr(rng, n_rows=80, n_cols=80)
        x = rng.standard_normal(80)
        direct, _ = smat.spmv(matrix, x)
        served = engine.spmv(matrix, x)
        assert np.array_equal(served.y, direct)
        # And again through the cached plan: still bitwise identical.
        assert np.array_equal(engine.spmv(matrix, x).y, direct)

    def test_result_metadata(self, engine, rng) -> None:
        matrix = random_csr(rng, n_rows=60, n_cols=50)
        x = np.ones(50)
        result = engine.spmv(matrix, x)
        assert result.fingerprint == fingerprint(matrix)
        assert result.kernel_name
        assert not result.cache_hit
        assert result.total_seconds >= 0.0
        assert engine.spmv(matrix, x).cache_hit

    def test_spmv_many(self, engine, rng) -> None:
        pairs = []
        for i in range(6):
            matrix = random_csr(rng, n_rows=40 + i, n_cols=40 + i)
            pairs.append((matrix, np.ones(matrix.n_cols)))
        results = engine.spmv_many(pairs)
        assert len(results) == 6
        for (matrix, x), result in zip(pairs, results):
            np.testing.assert_allclose(
                result.y, matrix.spmv(x), atol=1e-9
            )


class TestAmortization:
    """Acceptance criterion: a cache hit performs no feature extraction
    and no format conversion."""

    def test_cache_hit_skips_extraction_and_conversion(
        self, engine, rng
    ) -> None:
        matrix = random_csr(rng, n_rows=70, n_cols=70)
        x = np.ones(70)
        engine.spmv(matrix, x)  # cold: builds and caches the plan

        extractions = EXTRACTION_EVENTS.count
        conversions = CONVERSION_EVENTS.count
        for _ in range(5):
            result = engine.spmv(matrix, x)
            assert result.cache_hit
        assert EXTRACTION_EVENTS.delta_since(extractions) == 0
        assert CONVERSION_EVENTS.delta_since(conversions) == 0
        assert engine.metrics.counter("cache_hits").value >= 5
        assert engine.metrics.counter("plans_built").value == 1

    def test_invalidate_forces_rebuild(self, engine, rng) -> None:
        matrix = random_csr(rng, n_rows=50, n_cols=50)
        x = np.ones(50)
        engine.spmv(matrix, x)
        assert engine.invalidate(matrix)
        assert not engine.invalidate(matrix)
        engine.spmv(matrix, x)
        assert engine.metrics.counter("plans_built").value == 2
        assert engine.metrics.counter("plans_invalidated").value == 1


class TestBatching:
    def test_take_batch_coalesces_same_fingerprint(self, rng) -> None:
        from concurrent.futures import Future

        a = random_csr(rng, n_rows=30, n_cols=30)
        b = random_csr(rng, n_rows=31, n_cols=31)
        fa, fb = fingerprint(a), fingerprint(b)
        queue = _SubmissionQueue(capacity=16)
        order = [fa, fb, fa, fb, fa]
        for i, (key, matrix) in enumerate(
            zip(order, [a, b, a, b, a])
        ):
            queue.put(
                _Request(key, matrix, np.full(matrix.n_cols, i), Future()),
                timeout=None,
            )
        batch = queue.take_batch(max_batch=8)
        assert [r.key for r in batch] == [fa, fa, fa]
        # FIFO preserved within the batch and for the leftovers.
        assert [int(r.x[0]) for r in batch] == [0, 2, 4]
        rest = queue.take_batch(max_batch=8)
        assert [int(r.x[0]) for r in rest] == [1, 3]

    def test_take_batch_respects_max_batch(self, rng) -> None:
        from concurrent.futures import Future

        a = random_csr(rng, n_rows=30, n_cols=30)
        fa = fingerprint(a)
        queue = _SubmissionQueue(capacity=16)
        for i in range(5):
            queue.put(
                _Request(fa, a, np.full(a.n_cols, i), Future()),
                timeout=None,
            )
        assert len(queue.take_batch(max_batch=2)) == 2
        assert len(queue) == 3

    def test_batched_requests_share_one_plan_lookup(self, smat, rng) -> None:
        """Stall the worker so requests pile up, then confirm one plan
        resolution served the whole same-fingerprint batch."""
        gate = threading.Event()

        class GatedTuner(DecideOnlyTuner):
            def __init__(self, inner):
                self.inner = inner

            def decide(self, matrix, deadline=None):
                gate.wait(timeout=10)
                return self.inner.decide(matrix)

        matrix = random_csr(rng, n_rows=40, n_cols=40)
        config = ServeConfig(workers=1, queue_capacity=16)
        with ServingEngine(GatedTuner(smat), config) as engine:
            futures = [
                engine.submit(matrix, np.full(40, float(i)))
                for i in range(6)
            ]
            gate.set()
            results = [f.result(timeout=30) for f in futures]
        # First request resolves the plan; the rest ride the same batch
        # (cache_hit True) without their own plan resolution.
        assert sum(not r.cache_hit for r in results) == 1
        assert engine.metrics.counter("plans_built").value == 1
        assert engine.metrics.counter("requests_batched").value >= 1


class TestBackpressure:
    def test_bounded_queue_rejects_when_full(self, smat, rng) -> None:
        gate = threading.Event()

        class GatedTuner(DecideOnlyTuner):
            def __init__(self, inner):
                self.inner = inner

            def decide(self, matrix, deadline=None):
                gate.wait(timeout=10)
                return self.inner.decide(matrix)

        # Distinct fingerprints so the stalled batch cannot absorb them.
        matrices = [random_csr(rng, n_rows=30 + i) for i in range(4)]
        config = ServeConfig(workers=1, queue_capacity=1)
        with ServingEngine(GatedTuner(smat), config) as engine:
            first = engine.submit(matrices[0], np.ones(matrices[0].n_cols))
            # Give the worker a moment to pick up the first request.
            deadline = time.time() + 5
            while len(engine._queue) > 0 and time.time() < deadline:
                time.sleep(0.005)
            second = engine.submit(
                matrices[1], np.ones(matrices[1].n_cols)
            )  # fills the queue
            with pytest.raises(BackpressureError):
                engine.submit(
                    matrices[2], np.ones(matrices[2].n_cols), timeout=0.05
                )
            assert engine.metrics.counter("requests_rejected").value == 1
            gate.set()
            first.result(timeout=30)
            second.result(timeout=30)


class TestLifecycle:
    def test_submit_requires_running_engine(self, smat, rng) -> None:
        engine = ServingEngine(smat)
        matrix = random_csr(rng)
        with pytest.raises(ServeError, match="not running"):
            engine.submit(matrix, np.ones(matrix.n_cols))

    def test_no_restart_after_stop(self, smat) -> None:
        engine = ServingEngine(smat).start()
        engine.stop()
        with pytest.raises(ServeError, match="restart"):
            engine.start()

    def test_stop_drains_backlog(self, smat, rng) -> None:
        matrix = random_csr(rng, n_rows=45, n_cols=45)
        engine = ServingEngine(smat, ServeConfig(workers=1)).start()
        futures = [
            engine.submit(matrix, np.full(45, float(i))) for i in range(8)
        ]
        engine.stop(drain=True)
        for future in futures:
            assert future.result(timeout=5).y is not None

    def test_tuner_must_expose_decide(self) -> None:
        with pytest.raises(ServeError, match="decide"):
            ServingEngine(object())

    def test_config_validation(self) -> None:
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=0)
        with pytest.raises(ValueError, match="queue_capacity"):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ValueError, match="max_batch"):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError, match="cache_entries"):
            ServeConfig(cache_entries=0)


class TestErrorIsolation:
    def test_bad_operand_rejected_at_submit(self, engine, rng) -> None:
        """A wrong-length vector fails its own request with a clear
        ValueError at submit time — it never reaches a worker, so it can
        never take a coalesced batch down with it."""
        matrix = random_csr(rng, n_rows=55, n_cols=55)
        good = np.ones(55)
        engine.spmv(matrix, good)
        with pytest.raises(ValueError, match="operand vector"):
            engine.submit(matrix, np.ones(7))  # wrong operand length
        with pytest.raises(ValueError, match="operand vector"):
            engine.submit(matrix, np.ones((55, 1)))  # wrong rank
        assert engine.metrics.counter("requests_invalid").value == 2
        # Nothing was enqueued and the engine keeps serving.
        assert engine.metrics.counter("requests_failed").value == 0
        assert engine.spmv(matrix, good).cache_hit


class TestCounterConservation:
    #: A fixed schedule of (pool index, burst width) for one worker.
    SCHEDULE = [(i % 3, 1 + i % 4) for i in range(24)]

    def _serve_schedule(self, smat, pool) -> ServingEngine:
        """Serve ``SCHEDULE`` over ``pool`` on one worker; the stopped
        engine keeps its counters."""
        with ServingEngine(smat, ServeConfig(workers=1)) as engine:
            futures = []
            for target, width in self.SCHEDULE:
                matrix = pool[target]
                futures.extend(
                    engine.submit_batch(
                        matrix, [np.ones(matrix.n_cols)] * width
                    )
                )
            for future in futures:
                future.result()
        return engine

    def test_cache_hits_count_requests_not_dequeues(self, smat, rng) -> None:
        """One hit per request served from a cached plan, however the
        one worker happens to group the queue: a fixed schedule gives
        the same count on every run."""
        pool = [
            random_csr(rng, n_rows=40 + 5 * i, n_cols=40 + 5 * i)
            for i in range(3)
        ]
        requests = sum(width for _, width in self.SCHEDULE)
        counts = [
            self._serve_schedule(smat, pool)
            .metrics.counter("cache_hits")
            .value
            for _ in range(3)
        ]
        # Every request but the one that built each plan is a hit.
        assert counts == [requests - len(pool)] * 3

    def test_scoreboard_hit_line_counts_requests(self, smat, rng) -> None:
        """The scoreboard's plan-cache hit line reads the per-request
        counters: the same line on every run of a fixed schedule, and
        the same numbers as ``cache_hits`` and ``cache_misses``."""
        pool = [
            random_csr(rng, n_rows=40 + 5 * i, n_cols=40 + 5 * i)
            for i in range(3)
        ]
        lines = []
        for _ in range(3):
            engine = self._serve_schedule(smat, pool)
            (line,) = [
                row.strip()
                for row in engine.scoreboard().splitlines()
                if row.strip().startswith("hit rate")
            ]
            hits = engine.metrics.counter("cache_hits").value
            misses = engine.metrics.counter("cache_misses").value
            assert f"({hits} hits / {misses} misses)" in line
            lines.append(line)
        assert len(set(lines)) == 1

    def test_plan_resolution_counters_add_up(self, smat, rng) -> None:
        """Every served request is a cache hit (its batch's plan was
        cached, or it rode behind its batch's head) or the head of a
        tier-2 refresh or a miss; every successful build is a miss that
        did not fail or a retuning delta; every submitted request is
        served or failed.  No deadlines, and the breaker threshold sits
        above the one injected fault, so no batch expires or degrades
        before resolution."""
        faults = FaultPlan(
            [FaultRule(site="decide", kind="fatal", start=1, stop=2)]
        )
        config = ServeConfig(workers=2, breaker_threshold=3)
        pool = [
            random_csr(rng, n_rows=50 + 5 * i, n_cols=50 + 5 * i)
            for i in range(4)
        ]
        with ServingEngine(smat, config, faults=faults) as engine:
            # Cold builds; the second decide is the injected fault.
            for matrix in pool:
                engine.spmv(matrix, np.ones(matrix.n_cols))
            # Tier-1 hits, concurrent, plus the failed plan's rebuild.
            futures = [
                engine.submit(matrix, rng.standard_normal(matrix.n_cols))
                for matrix in pool
                for _ in range(3)
            ]
            for future in futures:
                future.result()
            # Tier-2 refresh: same structure, fresh values.
            head = pool[0]
            churned = CSRMatrix(
                head.ptr,
                head.indices,
                rng.standard_normal(head.nnz),
                head.shape,
            )
            assert engine.spmv(churned, np.ones(head.n_cols)).refreshed
            # A same-matrix burst.
            burst = engine.submit_batch(
                pool[2],
                [rng.standard_normal(pool[2].n_cols) for _ in range(6)],
            )
            for future in burst:
                future.result()
            # One retuning delta: inserts past the patch ceiling.
            victim = pool[3]
            holes = np.argwhere(victim.to_dense() == 0.0)
            picks = holes[: victim.nnz // 2 + 2]
            outcome = engine.apply_structure_delta(
                victim,
                StructureDelta(
                    insert_rows=picks[:, 0].astype(INDEX_DTYPE),
                    insert_cols=picks[:, 1].astype(INDEX_DTYPE),
                    insert_vals=np.ones(picks.shape[0]),
                ),
            )
            assert outcome.policy == "retune"
            engine.spmv(outcome.matrix, np.ones(victim.n_cols))
            snapshot = engine.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["plan_build_failures"] == 1
        assert counters["degraded_requests"] == 1
        assert counters["plans_refreshed"] == 1
        assert counters["delta_retunes"] == 1
        assert counters["cache_hits"] >= 1
        assert counters["requests_served"] == (
            counters["cache_hits"]
            + counters["plans_refreshed"]
            + counters["cache_misses"]
        )
        assert counters["plans_built"] == (
            counters["cache_misses"]
            - counters["plan_build_failures"]
            + counters["delta_retunes"]
        )
        assert counters["requests_submitted"] == (
            counters["requests_served"] + counters["requests_failed"]
        )


class TestStress:
    """The ISSUE acceptance stress test: >= 4 client threads, >= 200 mixed
    requests over >= 20 distinct matrices; zero errors, > 80% plan-cache
    hit rate, bitwise-identical results to direct SMAT.spmv calls."""

    def test_concurrent_mixed_workload(self, smat) -> None:
        pool = build_matrix_pool(20, seed=11, size_scale=0.5)
        schedule = popularity_schedule(len(pool), 240, seed=12)
        ops = schedule_ops(pool, schedule, clients=4, seed=99)
        expected = {}
        for burst in (op for client in ops for op in client):
            y, _ = smat.spmv(burst.matrix, burst.xs[0])
            expected[fingerprint(burst.matrix)] = y

        extractions = EXTRACTION_EVENTS.count
        conversions = CONVERSION_EVENTS.count
        config = ServeConfig(workers=4, cache_entries=32)
        with ServingEngine(smat, config) as engine:
            report = replay(engine, ops, verify=False)
            metrics = engine.metrics.snapshot()["counters"]

        assert not report.errors
        assert report.mismatches == 0
        assert report.requests == 240
        for result in report.results:
            assert np.array_equal(result.y, expected[result.fingerprint])

        assert metrics["cache_hits"] / 240 > 0.8
        # Misses count plan builds, not lookups: concurrent workers that
        # wait on one single-flight build serve the built plan as a hit.
        assert metrics["cache_misses"] == len(pool)
        assert metrics["plans_built"] == len(pool)
        assert metrics["requests_served"] == 240
        # Tuning work scaled with distinct matrices, not with requests:
        # the decision pipeline ran at most a few extraction/conversion
        # passes per plan build, regardless of the 240 requests.
        assert EXTRACTION_EVENTS.delta_since(extractions) <= 3 * len(pool)
        assert CONVERSION_EVENTS.delta_since(conversions) <= 5 * len(pool)


class TestOnlineIntegration:
    def test_engine_feeds_online_smat(self, smat) -> None:
        forced = SMAT(
            smat.model, smat.kernels, smat.backend,
            SmatConfig(always_measure=True),
        )
        online = OnlineSmat(forced, retrain_every=1000)
        rng = np.random.default_rng(5)
        matrices = [
            random_csr(rng, n_rows=40 + i, n_cols=40 + i) for i in range(6)
        ]
        with ServingEngine(online, ServeConfig(workers=2)) as engine:
            engine.spmv_many(
                [(m, np.ones(m.n_cols)) for m in matrices]
            )
        # Every distinct matrix fell back (always_measure) exactly once —
        # cached plans never re-measure.
        assert online.observations == len(matrices)
        assert engine.metrics.counter("fallback_decisions").value == len(
            matrices
        )


class TestPlanBuildMetrics:
    """Satellite: only cache misses pay (and record) plan-build latency."""

    def test_miss_populates_plan_build_histogram(self, engine, rng) -> None:
        histogram = engine.metrics.histogram("plan_build_seconds")
        assert histogram.count == 0

        matrix = random_csr(rng, n_rows=60, n_cols=60)
        x = np.ones(60)
        cold = engine.spmv(matrix, x)
        assert not cold.cache_hit
        assert histogram.count == 1
        assert histogram.sum > 0.0

        for _ in range(3):
            assert engine.spmv(matrix, x).cache_hit
        assert histogram.count == 1  # hits never touch the build path

        other = random_csr(rng, n_rows=61, n_cols=61)
        engine.spmv(other, np.ones(61))
        assert histogram.count == 2

    def test_plan_build_latency_in_report(self, engine, rng) -> None:
        matrix = random_csr(rng, n_rows=40, n_cols=40)
        engine.spmv(matrix, np.ones(40))
        report = engine.metrics.report()
        assert "plan_build_seconds" in report
