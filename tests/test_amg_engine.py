"""Direct tests of the AMG SpMV engines and their time accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amg import CsrEngine, SmatEngine
from repro.collection import generate_collection
from repro.collection.banded import banded_matrix
from repro.collection.grids import laplacian_5pt
from repro.features.extract import extract_features
from repro.kernels import Kernel
from repro.kernels.codegen import GENERATED_STRATEGIES
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.machine.costmodel import estimate_spmv_time
from repro.tuner import SMAT, SmatConfig
from repro.tuner.online import OnlineSmat
from repro.types import FormatName, Precision


@pytest.fixture(scope="module")
def backend():
    return SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)


@pytest.fixture(scope="module")
def smat(backend):
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


class TestCsrEngine:
    def test_always_csr(self, backend) -> None:
        op = CsrEngine(backend).prepare(laplacian_5pt(12))
        assert op.format_name is FormatName.CSR

    def test_apply_counts_and_simulated_time(self, backend) -> None:
        matrix = laplacian_5pt(12)
        op = CsrEngine(backend).prepare(matrix)
        assert op.applies == 0
        assert op.simulated_seconds == 0.0
        x = np.ones(matrix.n_cols)
        op(x)
        op(x)
        assert op.applies == 2
        assert op.simulated_seconds == pytest.approx(
            2 * op.seconds_per_apply
        )
        assert op.seconds_per_apply > 0.0

    def test_without_backend_no_time_model(self) -> None:
        op = CsrEngine().prepare(laplacian_5pt(8))
        assert op.seconds_per_apply == 0.0
        assert op.simulated_seconds == 0.0

    def test_product_correct(self, backend, rng) -> None:
        matrix = laplacian_5pt(10)
        op = CsrEngine(backend).prepare(matrix)
        x = rng.standard_normal(matrix.n_cols)
        np.testing.assert_allclose(op(x), matrix.spmv(x), atol=1e-12)


class TestSmatEngine:
    def test_picks_dia_for_fine_laplacian(self, smat) -> None:
        op = SmatEngine(smat).prepare(laplacian_5pt(40))
        assert op.format_name is FormatName.DIA

    def test_setup_units_recorded(self, smat) -> None:
        op = SmatEngine(smat).prepare(laplacian_5pt(40))
        assert op.setup_units > 0.0

    def test_tuned_apply_faster_than_csr(self, smat, backend) -> None:
        matrix = laplacian_5pt(40)
        tuned = SmatEngine(smat).prepare(matrix)
        plain = CsrEngine(backend).prepare(matrix)
        assert tuned.seconds_per_apply < plain.seconds_per_apply

    def test_product_correct_in_chosen_format(self, smat, rng) -> None:
        matrix = laplacian_5pt(20)
        op = SmatEngine(smat).prepare(matrix)
        x = rng.standard_normal(matrix.n_cols)
        np.testing.assert_allclose(op(x), matrix.spmv(x), atol=1e-9)


def attach_compiled(tuner, monkeypatch):
    """Attach a compiled kernel to every decision ``tuner`` makes; returns
    the list of matrices those kernels ran on."""
    runs = []
    decide = tuner.decide

    def decide_with_compiled(matrix, deadline=None):
        decision = decide(matrix, deadline=deadline)
        generic = decision.kernel

        def fn(m, x):
            runs.append(m)
            return generic.fn(m, x)

        decision.compiled_kernel = Kernel(
            generic.format_name, GENERATED_STRATEGIES, fn
        )
        return decision

    monkeypatch.setattr(tuner, "decide", decide_with_compiled)
    return runs


class TestServingKernelBinding:
    """Every library-path product runs ``decision.serving_kernel``: the
    compiled kernel when the decision carries one."""

    @pytest.fixture
    def compiled_runs(self, smat, monkeypatch):
        return attach_compiled(smat, monkeypatch)

    def test_smat_engine_runs_compiled_kernel(
        self, smat, backend, compiled_runs, rng
    ) -> None:
        matrix = laplacian_5pt(20)
        op = SmatEngine(smat).prepare(matrix)
        assert op.kernel.strategies == GENERATED_STRATEGIES
        x = rng.standard_normal(matrix.n_cols)
        np.testing.assert_allclose(op(x), matrix.spmv(x), atol=1e-9)
        assert compiled_runs == [op.matrix]
        # Still priced from the registry kernel, whose strategy set carries
        # the simulated thread scaling a generated kernel's does not.
        assert op.seconds_per_apply == estimate_spmv_time(
            backend.arch,
            op.format_name,
            extract_features(matrix),
            backend.precision,
            smat.decide(matrix).kernel.strategies,
        )

    def test_prepared_spmv_runs_compiled_kernel(
        self, smat, compiled_runs, rng
    ) -> None:
        matrix = laplacian_5pt(20)
        x = rng.standard_normal(matrix.n_cols)
        smat.prepare(matrix)(x)
        y, decision = smat.spmv(matrix, x)
        np.testing.assert_allclose(y, matrix.spmv(x), atol=1e-9)
        assert len(compiled_runs) == 2
        assert compiled_runs[1] is decision.matrix

    def test_online_spmv_runs_compiled_kernel(
        self, smat, compiled_runs, rng
    ) -> None:
        matrix = laplacian_5pt(20)
        x = rng.standard_normal(matrix.n_cols)
        y, decision = OnlineSmat(smat).spmv(matrix, x)
        np.testing.assert_allclose(y, matrix.spmv(x), atol=1e-9)
        assert compiled_runs == [decision.matrix]

    def test_online_prepare_and_spmv_learn_from_their_fallbacks(
        self, smat, monkeypatch, rng
    ) -> None:
        """``OnlineSmat.prepare`` and ``spmv`` decide through the online
        learner, not the wrapped SMAT: each records its fallback
        measurement, and each serves the decision's compiled kernel."""
        forced = SMAT(
            smat.model, smat.kernels, smat.backend,
            SmatConfig(always_measure=True),
        )
        runs = attach_compiled(forced, monkeypatch)
        online = OnlineSmat(forced, retrain_every=1000)
        matrix = banded_matrix(500, 5, seed=1)
        x = rng.standard_normal(matrix.n_cols)

        plan = online.prepare(matrix)
        assert plan.decision.used_fallback
        assert online.observations == 1
        np.testing.assert_allclose(plan(x), matrix.spmv(x), atol=1e-9)
        assert runs == [plan.matrix]

        y, decision = online.spmv(matrix, x)
        assert decision.used_fallback
        assert online.observations == 2
        np.testing.assert_allclose(y, matrix.spmv(x), atol=1e-9)
        assert runs == [plan.matrix, decision.matrix]
