"""Kernel-backend tests: registry, codegen policy, caching, serving.

Covers the pluggable backend seam end to end:

* the registry (lookup, unknown-name errors, config validation),
* the codegen backend's beat-or-keep-generic policy and its fallback on
  :class:`~repro.errors.CodegenError`,
* the source-hash compile cache — meter-proven hits, exactly one compile
  under concurrent cold builds,
* the serving engine: plans carry the compiled kernel, tier-2 value
  refresh and a re-warmed engine preserve it, a structure delta
  re-specializes it, the beat-or-keep audit runs once per cold build,
  and (the chaos case) a mid-serve ``codegen.compile`` fault degrades to
  the generic kernel without failing requests or feeding the circuit
  breaker.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.collection import banded, generate_collection
from repro.errors import CodegenError, KernelError
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta
from repro.kernels import codegen
from repro.kernels.backends import (
    DEFAULT_BACKEND,
    GenericBackend,
    KernelBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.kernels.base import find_kernel
from repro.kernels.codegen import (
    GeneratedKernel,
    codegen_stats,
    generate_kernel,
    reset_codegen_stats,
)
from repro.kernels.strategies import Strategy, strategy_set
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.machine.costmodel import codegen_overhead_units
from repro.serve import FaultPlan, FaultRule, ServeConfig, ServingEngine
from repro.tuner import SMAT
from repro.tuner.config import SmatConfig
from repro.types import INDEX_DTYPE, FormatName

from tests.test_properties_differential import (
    dyadic_operand,
    with_dyadic_data,
)


@pytest.fixture(scope="module")
def smat() -> SMAT:
    backend = SimulatedBackend(INTEL_XEON_X5680)
    return SMAT.train(
        generate_collection(scale=0.05, size_scale=0.3, seed=99),
        backend=backend,
    )


def _band(n: int = 400, n_diags: int = 5, seed: int = 7) -> CSRMatrix:
    return banded.banded_matrix(n, n_diags, seed=seed)


def _with_values(matrix: CSRMatrix, seed: int) -> CSRMatrix:
    """Same structure, fresh values (the tier-2 churn shape)."""
    rng = np.random.default_rng(seed)
    return CSRMatrix(
        matrix.ptr,
        matrix.indices,
        rng.standard_normal(matrix.nnz),
        matrix.shape,
    )


def _force_generated_wins(monkeypatch) -> None:
    """Pin the beat-or-keep timing race: generated always wins.

    The audit (allclose) still runs for real — only the wall-clock probe
    is stubbed, so tests assert on policy, not on scheduler noise.
    """
    monkeypatch.setattr(
        codegen,
        "_best_time",
        lambda kernel, matrix, x: (
            0.0 if isinstance(kernel, GeneratedKernel) else 1.0
        ),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_backends_registered(self) -> None:
        names = backend_names()
        assert DEFAULT_BACKEND in names
        assert "codegen" in names
        assert isinstance(get_backend("generic"), GenericBackend)
        assert get_backend("codegen").name == "codegen"

    def test_unknown_backend_lists_registered_names(self) -> None:
        with pytest.raises(KernelError, match="codegen"):
            get_backend("llvm")

    def test_duplicate_registration_rejected(self) -> None:
        with pytest.raises(KernelError, match="duplicate"):
            register_backend(GenericBackend())

    def test_serve_config_validates_backend(self) -> None:
        with pytest.raises(ValueError, match="kernel_backend"):
            ServeConfig(kernel_backend="llvm")

    def test_smat_config_validates_backend(self) -> None:
        with pytest.raises(ValueError, match="kernel_backend"):
            SmatConfig(kernel_backend="llvm")

    def test_generic_backend_is_identity(self, rng) -> None:
        matrix = _band()
        base = find_kernel(FormatName.CSR, strategy_set(Strategy.VECTORIZE))
        assert get_backend("generic").specialize(matrix, base) is base
        assert get_backend("generic").overhead_units(matrix) == 0.0


# ---------------------------------------------------------------------------
# Beat-or-keep policy and fallback
# ---------------------------------------------------------------------------

class TestCodegenPolicy:
    def test_specialize_returns_generated_when_it_wins(
        self, monkeypatch
    ) -> None:
        _force_generated_wins(monkeypatch)
        matrix, _ = convert(_band(), FormatName.DIA, fill_budget=None)
        base = find_kernel(FormatName.DIA, strategy_set(Strategy.VECTORIZE))
        kernel = get_backend("codegen").specialize(matrix, base)
        assert isinstance(kernel, GeneratedKernel)
        assert "codegen[" in kernel.name
        x = np.linspace(-1.0, 1.0, matrix.n_cols)
        assert np.allclose(kernel(matrix, x), base(matrix, x))

    def test_specialize_keeps_generic_when_it_loses(
        self, monkeypatch
    ) -> None:
        monkeypatch.setattr(
            codegen,
            "_best_time",
            lambda kernel, matrix, x: (
                1.0 if isinstance(kernel, GeneratedKernel) else 0.0
            ),
        )
        matrix, _ = convert(_band(), FormatName.DIA, fill_budget=None)
        base = find_kernel(FormatName.DIA, strategy_set(Strategy.VECTORIZE))
        assert get_backend("codegen").specialize(matrix, base) is base

    def test_specialize_falls_back_on_codegen_error(
        self, monkeypatch
    ) -> None:
        def refuse(matrix):
            raise CodegenError("injected: no template")

        monkeypatch.setattr(codegen.templates, "emit", refuse)
        matrix = _band()
        base = find_kernel(FormatName.CSR, strategy_set(Strategy.VECTORIZE))
        assert get_backend("codegen").specialize(matrix, base) is base

    def test_specialize_keeps_generic_on_audit_mismatch(
        self, monkeypatch
    ) -> None:
        _force_generated_wins(monkeypatch)
        matrix = _band()
        base = find_kernel(FormatName.CSR, strategy_set(Strategy.VECTORIZE))
        honest = codegen.generate_kernel

        def corrupted(m):
            kernel = honest(m)
            return replace(
                kernel, fn=lambda mm, xx: kernel.fn(mm, xx) + 1.0
            )

        monkeypatch.setattr(codegen, "generate_kernel", corrupted)
        assert get_backend("codegen").specialize(matrix, base) is base

    def test_overhead_units_match_cost_model(self) -> None:
        assert get_backend("codegen").overhead_units(_band()) == (
            codegen_overhead_units(codegen.PROBE_REPEATS)
        )


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------

class TestCompileCache:
    def test_same_structure_hits_cache(self) -> None:
        reset_codegen_stats(clear_cache=True)
        base = _band(seed=11)
        first = generate_kernel(base)
        second = generate_kernel(_with_values(base, seed=12))
        stats = codegen_stats()
        assert stats["compiles"] == 1
        assert stats["cache_hits"] == 1
        assert first.source_hash == second.source_hash
        # Aux arrays are bound per kernel, so the shared code object still
        # computes each matrix's own product.
        x = np.linspace(-1.0, 1.0, base.n_cols)
        churned = _with_values(base, seed=12)
        assert np.allclose(second(churned, x), churned.spmv(x))

    def test_different_structure_recompiles(self) -> None:
        reset_codegen_stats(clear_cache=True)
        generate_kernel(_band(n=100, n_diags=3))
        generate_kernel(_band(n=200, n_diags=5))
        stats = codegen_stats()
        assert stats["compiles"] == 2
        assert stats["cache_hits"] == 0

    def test_concurrent_cold_builds_compile_once(self) -> None:
        reset_codegen_stats(clear_cache=True)
        matrix = _band(n=300, n_diags=5, seed=23)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        kernels = [None] * n_threads
        errors = []

        def build(i: int) -> None:
            try:
                barrier.wait()
                kernels[i] = generate_kernel(matrix)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=build, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = codegen_stats()
        assert stats["compiles"] == 1
        assert stats["cache_hits"] == n_threads - 1
        assert len({k.source_hash for k in kernels}) == 1

    def test_generated_source_is_in_linecache(self) -> None:
        import linecache

        kernel = generate_kernel(_band(seed=31))
        filename = f"{codegen.GENERATED_FILE_PREFIX}{kernel.source_hash[:12]}>"
        assert "def spmv" in "".join(linecache.cache[filename][2])


# ---------------------------------------------------------------------------
# Tuner integration: codegen_units charged, serving_kernel resolution
# ---------------------------------------------------------------------------

class TestTunerIntegration:
    def test_decision_charges_codegen_units(self, smat, monkeypatch) -> None:
        _force_generated_wins(monkeypatch)
        config = replace(smat.config, kernel_backend="codegen")
        monkeypatch.setattr(smat, "config", config)
        decision = smat.decide(_band())
        assert decision.codegen_units == codegen_overhead_units(
            codegen.PROBE_REPEATS
        )
        assert decision.overhead_units >= decision.codegen_units
        if decision.compiled_kernel is not None:
            assert decision.serving_kernel is decision.compiled_kernel
            assert "codegen[" in decision.serving_kernel.name
        else:
            assert decision.serving_kernel is decision.kernel

    def test_codegen_units_survive_serialization(self, smat, monkeypatch
                                                 ) -> None:
        _force_generated_wins(monkeypatch)
        config = replace(smat.config, kernel_backend="codegen")
        monkeypatch.setattr(smat, "config", config)
        decision = smat.decide(_band())
        payload = decision.to_dict()
        assert payload["codegen_units"] == decision.codegen_units
        from repro.tuner.runtime import Decision

        restored = Decision.from_dict(payload)
        assert restored.codegen_units == decision.codegen_units
        # The compiled callable is runtime state: never serialized.
        assert restored.compiled_kernel is None

    def test_cascade_budget_refuses_unaffordable_specialization(
        self, smat, monkeypatch
    ) -> None:
        _force_generated_wins(monkeypatch)
        # A budget the decision itself fits in, but specialization does
        # not: codegen_units stays zero, the plan serves the generic
        # kernel, and the budget promise holds.
        config = replace(
            smat.config,
            kernel_backend="codegen",
            tune_budget_units=0.5,
        )
        monkeypatch.setattr(smat, "config", config)
        decision = smat.decide(_band())
        assert decision.codegen_units == 0.0
        assert decision.compiled_kernel is None
        assert decision.overhead_units <= 0.5


# ---------------------------------------------------------------------------
# Serving engine integration
# ---------------------------------------------------------------------------

def _engine(smat, **config_kwargs) -> ServingEngine:
    config = ServeConfig(
        workers=2, kernel_backend="codegen", **config_kwargs
    )
    return ServingEngine(smat, config)


class TestServingIntegration:
    def test_plans_serve_compiled_kernels(self, smat, monkeypatch) -> None:
        _force_generated_wins(monkeypatch)
        matrix = _band(seed=41)
        x = np.linspace(-1.0, 1.0, matrix.n_cols)
        with _engine(smat) as engine:
            result = engine.spmv(matrix, x)
            assert "codegen[" in result.kernel_name
            assert np.allclose(result.y, matrix.spmv(x))
            assert engine.metrics.counter("codegen_kernels").value == 1
            assert engine.metrics.counter("codegen_fallbacks").value == 0

    def test_value_refresh_preserves_compiled_kernel(
        self, smat, monkeypatch
    ) -> None:
        _force_generated_wins(monkeypatch)
        matrix = _band(seed=43)
        x = np.linspace(-1.0, 1.0, matrix.n_cols)
        with _engine(smat) as engine:
            cold = engine.spmv(matrix, x)
            assert "codegen[" in cold.kernel_name
            churned = _with_values(matrix, seed=44)
            warm = engine.spmv(churned, x)
            assert warm.refreshed
            # The tier-2 refresh swapped values in place; the compiled
            # kernel folds structure only, so it must still be serving.
            assert warm.kernel_name == cold.kernel_name
            assert np.allclose(warm.y, churned.spmv(x))

    def test_rewarmed_engine_reuses_compiled_source(
        self, smat, monkeypatch
    ) -> None:
        _force_generated_wins(monkeypatch)
        matrix = _band(seed=47)
        x = np.linspace(-1.0, 1.0, matrix.n_cols)
        with _engine(smat) as engine:
            first = engine.spmv(matrix, x)
        assert "codegen[" in first.kernel_name
        before = codegen_stats()
        # A fresh engine (a restarted worker re-warming the same corpus)
        # regenerates the kernel from structure: the source hash matches,
        # so the compile cache serves it without recompiling.
        with _engine(smat) as rewarmed:
            second = rewarmed.spmv(matrix, x)
        after = codegen_stats()
        assert second.kernel_name == first.kernel_name
        assert after["compiles"] == before["compiles"]
        assert after["cache_hits"] > before["cache_hits"]

    def test_delta_onto_new_diagonal_respecializes(
        self, smat, monkeypatch
    ) -> None:
        """A delta that adds a diagonal moves the DIA offsets the compiled
        kernel folded in: the migrated plan must serve a kernel generated
        for the post-delta structure, not the pre-delta one."""
        _force_generated_wins(monkeypatch)
        rng = np.random.default_rng(5)
        matrix = with_dyadic_data(_band(), rng)
        x = dyadic_operand(rng, matrix.n_cols)
        rows = np.repeat(np.arange(matrix.n_rows), matrix.row_degrees())
        offset = int((matrix.indices - rows).max()) + 7
        inserted = np.array([10, 50, 90], dtype=INDEX_DTYPE)
        delta = StructureDelta(
            insert_rows=inserted,
            insert_cols=inserted + offset,
            insert_vals=np.array([0.5, -1.25, 2.0]),
        )
        with _engine(smat) as engine:
            cold = engine.spmv(matrix, x)
            assert cold.kernel_name.startswith("DIA/codegen[")
            outcome = engine.apply_structure_delta(matrix, delta)
            assert outcome.policy == "refresh"
            served = engine.spmv(outcome.matrix, x)
        assert np.array_equal(
            served.y, outcome.matrix.spmv(x, reference=True)
        )
        assert served.kernel_name.startswith("DIA/codegen[")
        assert served.kernel_name != cold.kernel_name

    def test_tuner_audit_not_repeated_by_engine(
        self, smat, monkeypatch
    ) -> None:
        """A tuner running the codegen backend already audited the
        kernel; when generic wins, the engine must keep that verdict
        rather than emit and audit a second time."""
        monkeypatch.setattr(
            codegen,
            "_best_time",
            lambda kernel, matrix, x: (
                1.0 if isinstance(kernel, GeneratedKernel) else 0.0
            ),
        )
        config = replace(smat.config, kernel_backend="codegen")
        monkeypatch.setattr(smat, "config", config)
        matrix = _band(seed=59)
        x = np.linspace(-1.0, 1.0, matrix.n_cols)
        reset_codegen_stats(clear_cache=True)
        with _engine(smat) as engine:
            result = engine.spmv(matrix, x)
            assert engine.metrics.counter("codegen_kept_generic").value == 1
        stats = codegen_stats()
        assert stats["compiles"] + stats["cache_hits"] == 1
        assert "codegen[" not in result.kernel_name
        assert np.allclose(result.y, matrix.spmv(x))

    def test_compile_fault_degrades_to_generic_not_breaker(
        self, smat, monkeypatch
    ) -> None:
        """Satellite chaos case: a mid-serve codegen.compile fault must
        cost nothing but the specialization — requests keep succeeding on
        the generic kernel, nothing is degraded, and the circuit breaker
        never sees the failure."""
        _force_generated_wins(monkeypatch)
        faults = FaultPlan(
            [FaultRule(site="codegen.compile", kind="fatal", rate=1.0)]
        )
        matrix = _band(seed=53)
        x = np.linspace(-1.0, 1.0, matrix.n_cols)
        config = ServeConfig(workers=2, kernel_backend="codegen")
        with ServingEngine(smat, config, faults=faults) as engine:
            churned = _with_values(matrix, 54)
            cases = [(matrix, engine.spmv(matrix, x)) for _ in range(6)]
            cases.append((churned, engine.spmv(churned, x)))
            for served, result in cases:
                assert not result.degraded
                assert "codegen[" not in result.kernel_name
                assert np.allclose(result.y, served.spmv(x))
            assert engine.metrics.counter("codegen_fallbacks").value >= 1
            assert engine.metrics.counter("codegen_kernels").value == 0
            assert engine.metrics.counter("breaker_opened").value == 0
            assert engine.metrics.counter("requests_failed").value == 0
            assert engine.metrics.counter("degraded_requests").value == 0
        assert faults.counts()["codegen.compile"]["injected"] >= 1


# ---------------------------------------------------------------------------
# Backend interface contract
# ---------------------------------------------------------------------------

class TestBackendInterface:
    def test_base_class_contract(self) -> None:
        class NoopBackend(KernelBackend):
            name = "test-noop"

        backend = NoopBackend()
        matrix = _band()
        base = find_kernel(FormatName.CSR, strategy_set(Strategy.VECTORIZE))
        # specialize is the one method an implementation must provide;
        # overhead defaults to free.
        with pytest.raises(NotImplementedError):
            backend.specialize(matrix, base)
        assert backend.overhead_units(matrix) == 0.0
