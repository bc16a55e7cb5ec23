"""SpMM fast-path tests: kernels and registry, and engine batch
coalescing of same-matrix fan-in.

The bitwise assertions lean on the same dyadic-value trick as the
differential sweep (exact products, order-free sums), so a batched
execution path that reorders, drops or double-counts a request cannot
hide behind float tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import generate_collection
from repro.errors import DeadlineExceededError
from repro.formats.convert import csr_to_dia, csr_to_ell
from repro.formats.csr import CSRMatrix
from repro.formats.reference import csr_spmm_loop
from repro.kernels.spmm import (
    HEAVY_ROW_DEGREE,
    csr_spmm,
    dia_spmm,
    ell_spmm,
    spmm_fallback,
    spmm_formats,
    spmm_kernel_for,
    supports_spmm,
)
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import FaultPlan, ServeConfig, ServingEngine
from repro.tuner import SMAT
from repro.types import FormatName, Precision

from tests.conftest import random_csr
from tests.test_properties_differential import (
    dyadic_operand,
    with_dyadic_data,
)


@pytest.fixture(scope="module")
def smat() -> SMAT:
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


def dyadic_block(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return np.stack([dyadic_operand(rng, n) for _ in range(k)], axis=1)


# ---------------------------------------------------------------------------
# Kernels and registry
# ---------------------------------------------------------------------------
class TestKernels:
    def test_registry_covers_vector_formats(self) -> None:
        assert supports_spmm(FormatName.CSR)
        assert supports_spmm(FormatName.ELL)
        assert supports_spmm(FormatName.DIA)
        assert not supports_spmm(FormatName.COO)
        assert spmm_kernel_for(FormatName.COO) is None
        for name in spmm_formats():
            assert callable(spmm_kernel_for(name))

    def test_csr_heavy_and_empty_rows(self, rng) -> None:
        # One hub row past HEAVY_ROW_DEGREE, interleaved empty rows: the
        # kernel must route the hub through the segment-sum path and
        # leave empty rows exactly zero.
        n_cols = 4 * HEAVY_ROW_DEGREE
        hub = np.zeros(n_cols)
        hub[:: 2] = 0.5
        dense = np.zeros((5, n_cols))
        dense[1] = hub
        dense[3, :3] = (0.25, -0.5, 1.0)
        matrix = with_dyadic_data(CSRMatrix.from_dense(dense), rng)
        X = dyadic_block(rng, n_cols, 7)
        assert np.array_equal(csr_spmm(matrix, X), csr_spmm_loop(matrix, X))
        assert np.array_equal(csr_spmm(matrix, X)[0], np.zeros(7))

    def test_csr_empty_matrix(self) -> None:
        matrix = CSRMatrix.from_dense(np.zeros((6, 4)))
        Y = csr_spmm(matrix, np.ones((4, 3)))
        assert np.array_equal(Y, np.zeros((6, 3)))

    def test_ell_dia_match_loop_oracle(self, rng) -> None:
        base = CSRMatrix.from_dense(
            np.diag(np.ones(30)) + np.diag(np.ones(29), k=1)
        )
        matrix = with_dyadic_data(base, rng)
        X = dyadic_block(rng, 30, 4)
        expect = csr_spmm_loop(matrix, X)
        ell, _ = csr_to_ell(matrix, fill_budget=None)
        dia, _ = csr_to_dia(matrix, fill_budget=None)
        assert np.array_equal(ell_spmm(ell, X), expect)
        assert np.array_equal(dia_spmm(dia, X), expect)

    def test_fallback_equals_sequential(self, rng) -> None:
        matrix = with_dyadic_data(random_csr(rng, n_rows=40, n_cols=30), rng)
        X = dyadic_block(rng, 30, 3)
        assert np.array_equal(
            spmm_fallback(matrix, X), csr_spmm_loop(matrix, X)
        )

    def test_operand_block_validated(self, rng) -> None:
        from repro.errors import FormatError

        matrix = random_csr(rng, n_rows=10, n_cols=8)
        with pytest.raises(FormatError):
            csr_spmm(matrix, np.ones((9, 2)))
        with pytest.raises(FormatError):
            csr_spmm(matrix, np.ones(8))


# ---------------------------------------------------------------------------
# Engine batch coalescing
# ---------------------------------------------------------------------------
class TestEngineBatching:
    def _dyadic_case(self, rng, k=8):
        matrix = with_dyadic_data(
            random_csr(rng, n_rows=90, n_cols=90), rng
        )
        xs = [dyadic_operand(rng, 90) for _ in range(k)]
        return matrix, xs

    def test_submit_batch_executes_one_spmm(
        self, smat, rng, spmm_verdict
    ) -> None:
        spmm_verdict(True)
        matrix, xs = self._dyadic_case(rng)
        config = ServeConfig(workers=1, max_batch_rhs=8)
        with ServingEngine(smat, config) as engine:
            futures = engine.submit_batch(matrix, xs)
            results = [f.result() for f in futures]
            counters = engine.metrics.snapshot()["counters"]
        assert counters["spmm_batches_total"] >= 1
        assert counters["spmm_requests_batched"] == len(xs)
        for x, result in zip(xs, results):
            assert np.array_equal(result.y, matrix.spmv(x, reference=True))

    def test_batch_results_bitwise_equal_unbatched(self, smat, rng) -> None:
        matrix, xs = self._dyadic_case(rng)
        with ServingEngine(smat, ServeConfig(workers=1)) as engine:
            plain = [engine.spmv(matrix, x).y for x in xs]
        config = ServeConfig(workers=1, max_batch_rhs=8)
        with ServingEngine(smat, config) as engine:
            batched = [
                f.result().y for f in engine.submit_batch(matrix, xs)
            ]
        for a, b in zip(plain, batched):
            assert np.array_equal(a, b)

    def test_max_batch_rhs_one_disables_spmm(self, smat, rng) -> None:
        matrix, xs = self._dyadic_case(rng)
        with ServingEngine(smat, ServeConfig(workers=1)) as engine:
            for future in engine.submit_batch(matrix, xs):
                future.result()
            counters = engine.metrics.snapshot()["counters"]
        assert counters["spmm_batches_total"] == 0

    def test_batch_window_coalesces_separate_submits(
        self, smat, rng, spmm_verdict
    ) -> None:
        spmm_verdict(True)
        matrix, xs = self._dyadic_case(rng, k=4)
        config = ServeConfig(
            workers=1, batch_window=0.25, max_batch_rhs=4
        )
        with ServingEngine(smat, config) as engine:
            engine.spmv(matrix, xs[0])  # plan resolved, cache warm
            futures = [engine.submit(matrix, x) for x in xs]
            for future in futures:
                future.result()
            counters = engine.metrics.snapshot()["counters"]
        assert counters["spmm_requests_batched"] >= 2

    def test_expired_member_excluded_from_batch(self, smat, rng) -> None:
        matrix, xs = self._dyadic_case(rng, k=3)
        config = ServeConfig(workers=1, max_batch_rhs=4)
        with ServingEngine(smat, config) as engine:
            engine.spmv(matrix, xs[0])  # warm the plan first
            futures = engine.submit_batch(
                matrix, xs, deadlines=[None, 1e-9, None]
            )
            ok_a = futures[0].result()
            with pytest.raises(DeadlineExceededError):
                futures[1].result()
            ok_b = futures[2].result()
        assert np.array_equal(ok_a.y, matrix.spmv(xs[0], reference=True))
        assert np.array_equal(ok_b.y, matrix.spmv(xs[2], reference=True))

    def test_member_expiring_during_spmm_stall_gets_deadline_error(
        self, smat, rng, monkeypatch, spmm_verdict
    ) -> None:
        """Regression: a member whose deadline expires between the batch
        take and the stack build must resolve DeadlineExceededError, not
        be served late.  The stall is an injected spmm latency fault on a
        fake clock: its "sleep" jumps ``time.monotonic`` forward past one
        member's budget at exactly the window the old code missed (the
        hook used to fire after the only deadline sweep)."""
        import time as _time

        from repro.serve.faults import FaultPlan, FaultRule

        spmm_verdict(True)
        real_monotonic = _time.monotonic
        offset = [0.0]
        monkeypatch.setattr(
            _time, "monotonic", lambda: real_monotonic() + offset[0]
        )

        def jump(seconds: float) -> None:
            offset[0] += seconds

        faults = FaultPlan(
            [FaultRule(site="spmm", kind="latency", latency=10.0)],
            sleep=jump,
        )
        matrix, xs = self._dyadic_case(rng, k=3)
        config = ServeConfig(workers=1, max_batch_rhs=4)
        with ServingEngine(smat, config, faults=faults) as engine:
            engine.spmv(matrix, xs[0])  # warm the plan first
            futures = engine.submit_batch(
                matrix, xs, deadlines=[None, 5.0, None]
            )
            ok_a = futures[0].result()
            with pytest.raises(DeadlineExceededError):
                futures[1].result()
            ok_b = futures[2].result()
            counters = engine.metrics.snapshot()["counters"]
        assert np.array_equal(ok_a.y, matrix.spmv(xs[0], reference=True))
        assert np.array_equal(ok_b.y, matrix.spmv(xs[2], reference=True))
        assert counters["deadline_exceeded"] == 1
        # The two survivors still ride one stacked pass.
        assert counters["spmm_requests_batched"] == 2

    def test_spmm_fault_falls_back_to_per_request_spmv(
        self, smat, rng
    ) -> None:
        matrix, xs = self._dyadic_case(rng)
        faults = FaultPlan.parse(["spmm,rate=1.0"], seed=1)
        config = ServeConfig(workers=1, max_batch_rhs=8)
        with ServingEngine(smat, config, faults=faults) as engine:
            results = [
                f.result() for f in engine.submit_batch(matrix, xs)
            ]
            counters = engine.metrics.snapshot()["counters"]
        # Every batch's SpMM was sabotaged, yet every member succeeded
        # through the sequential fallback.
        assert counters["spmm_fallbacks"] >= 1
        for x, result in zip(xs, results):
            assert np.array_equal(result.y, matrix.spmv(x, reference=True))

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch_rhs": 0}, {"batch_window": -0.1}],
    )
    def test_bad_config_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

