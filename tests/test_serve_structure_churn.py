"""Serving under structure churn: plan migration policies, the
fingerprint re-mint guarantee, frozen post-delta matrices hashed once,
and CSR plans that run on their own request's matrix.

The contract under test: a structure delta retires the pre-delta
fingerprint unconditionally — a mutated matrix can *never* hit its stale
plan in either cache tier — and the resident plan migrates by the
cheapest policy the delta admits (patch in place, refresh the operand,
or full retune).  The streaming scenario at the bottom is the workload
the whole delta path exists for: one evolving power-law graph serving
SpMV traffic while its edge set churns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import generate_collection
from repro.collection.banded import banded_matrix
from repro.features.incremental import DeltaFeatures
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta, apply_delta
from repro.kernels import kernels_for
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import (
    ServeConfig,
    ServingEngine,
    evolving_graph_ops,
    fingerprint,
    replay,
)
from repro.serve.engine import DELTA_PATCH_MAX_RATIO
from repro.tuner import SMAT
from repro.tuner.runtime import Decision
from repro.types import INDEX_DTYPE, FormatName, Precision

from tests.conftest import DecideOnlyTuner, random_csr
from tests.test_properties_differential import with_dyadic_data


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


def _small_delta(matrix: CSRMatrix, rng: np.random.Generator) -> StructureDelta:
    """A few edits — far below ``DELTA_PATCH_MAX_RATIO`` of nnz."""
    degrees = matrix.row_degrees()
    row = int(np.argmax(degrees))
    start = int(matrix.ptr[row])
    col = int(matrix.indices[start])
    dense_row = matrix.to_dense()[row]
    holes = np.flatnonzero(dense_row == 0.0)
    return StructureDelta(
        insert_rows=np.array([row], dtype=INDEX_DTYPE),
        insert_cols=np.array([int(holes[0])], dtype=INDEX_DTYPE),
        insert_vals=rng.standard_normal(1),
        delete_rows=np.array([row], dtype=INDEX_DTYPE),
        delete_cols=np.array([col], dtype=INDEX_DTYPE),
    )


def _big_delta(matrix: CSRMatrix, rng: np.random.Generator) -> StructureDelta:
    """Structural churn well past the patch ceiling (> nnz / 4 inserts)."""
    dense = matrix.to_dense()
    holes = np.argwhere(dense == 0.0)
    count = min(matrix.nnz // 2 + 2, holes.shape[0])
    picks = holes[rng.choice(holes.shape[0], size=count, replace=False)]
    return StructureDelta(
        insert_rows=picks[:, 0].astype(INDEX_DTYPE),
        insert_cols=picks[:, 1].astype(INDEX_DTYPE),
        insert_vals=rng.standard_normal(count),
    )


class TestMigrationPolicies:
    def test_small_delta_avoids_full_retune(self, engine, rng) -> None:
        matrix = banded_matrix(400, 5, seed=3)
        x = rng.standard_normal(matrix.n_cols)
        engine.spmv(matrix, x)  # make the plan resident

        features = DeltaFeatures(matrix)
        outcome = engine.apply_structure_delta(
            matrix, _small_delta(matrix, rng), features=features
        )
        assert outcome.policy in ("patch", "refresh")
        # Maintained features answered the re-decision — no extraction.
        assert outcome.redecision_stage == "delta"
        assert outcome.old_format is not None
        assert outcome.delta_ratio <= DELTA_PATCH_MAX_RATIO

        counters = engine.metrics.snapshot()["counters"]
        assert counters["deltas_applied"] == 1
        assert (
            counters["delta_patches"] + counters["delta_refreshes"] == 1
        )
        assert counters["delta_retunes"] == 0

        # The migrated plan serves the post-delta structure correctly.
        served = engine.spmv(outcome.matrix, x)
        assert np.allclose(
            served.y, outcome.matrix.spmv(x, reference=True), atol=1e-9
        )

    def test_big_delta_forces_retune(self, engine, rng) -> None:
        matrix = random_csr(rng, n_rows=90, n_cols=90)
        x = rng.standard_normal(90)
        engine.spmv(matrix, x)

        outcome = engine.apply_structure_delta(matrix, _big_delta(matrix, rng))
        assert outcome.policy == "retune"
        assert outcome.redecision_stage is None
        assert outcome.delta_ratio > DELTA_PATCH_MAX_RATIO
        counters = engine.metrics.snapshot()["counters"]
        assert counters["delta_retunes"] == 1

        served = engine.spmv(outcome.matrix, x)
        assert np.allclose(
            served.y, outcome.matrix.spmv(x, reference=True), atol=1e-9
        )

    def test_unserved_matrix_retunes(self, engine, rng) -> None:
        # No resident plan: nothing to migrate, however small the delta.
        matrix = banded_matrix(300, 5, seed=4)
        outcome = engine.apply_structure_delta(
            matrix, _small_delta(matrix, rng)
        )
        assert outcome.policy == "retune"
        assert outcome.old_format is None

    def test_delta_ratio_reports_structural_edits(self, engine, rng) -> None:
        matrix = banded_matrix(300, 5, seed=5)
        engine.spmv(matrix, rng.standard_normal(matrix.n_cols))
        delta = _small_delta(matrix, rng)
        _, effect = apply_delta(matrix, delta)
        outcome = engine.apply_structure_delta(matrix, delta)
        assert outcome.delta_ratio == effect.structural_size / matrix.nnz


class TestFingerprintRemint:
    def test_delta_retires_both_cache_tiers(self, engine, rng) -> None:
        """The satellite-1 audit, API path: after a delta the old
        fingerprint and structure key are dead — both keys are re-minted
        and the stale plan is invalidated."""
        matrix = banded_matrix(400, 5, seed=6)
        x = rng.standard_normal(matrix.n_cols)
        engine.spmv(matrix, x)
        old_key = fingerprint(matrix)

        outcome = engine.apply_structure_delta(
            matrix, _small_delta(matrix, rng), features=DeltaFeatures(matrix)
        )
        assert outcome.old_fingerprint == old_key
        assert outcome.fingerprint != old_key
        assert outcome.fingerprint.structure_key != old_key.structure_key
        counters = engine.metrics.snapshot()["counters"]
        assert counters["plans_invalidated"] == 1

        # Serving the post-delta matrix hits the *migrated* plan (no new
        # build) and the product reflects the post-delta structure.
        built_before = engine.metrics.counter("plans_built").value
        served = engine.spmv(outcome.matrix, x)
        assert engine.metrics.counter("plans_built").value == built_before
        assert np.allclose(
            served.y, outcome.matrix.spmv(x, reference=True), atol=1e-9
        )

    def test_inplace_mutation_never_hits_stale_plan(self, engine, rng) -> None:
        """The satellite-1 regression, hostile path: a caller that edits
        ``matrix.indices`` behind the engine's back still can't be served
        the pre-delta plan — the fingerprint digests the index array, so
        the mutated matrix misses tier 1 *and* tier 2 and gets a fresh
        decision."""
        dense = np.diag(np.arange(1.0, 41.0))
        matrix = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(40)
        stale = engine.spmv(matrix, x)
        built_before = engine.metrics.counter("plans_built").value
        structure_hits_before = engine.metrics.counter(
            "structure_hits"
        ).value

        # Move row 0's only entry from column 0 to column 1 (stays
        # canonical: the row is a single sorted index).
        matrix.indices[0] = 1
        fresh = engine.spmv(matrix, x)

        assert engine.metrics.counter("plans_built").value == built_before + 1
        assert (
            engine.metrics.counter("structure_hits").value
            == structure_hits_before
        )
        expected = matrix.spmv(x, reference=True)
        assert np.allclose(fresh.y, expected, atol=1e-9)
        # And the stale product would have been wrong — the miss mattered.
        assert not np.allclose(stale.y, expected, atol=1e-9)


class TestFrozenDeltaMatrices:
    def test_post_delta_matrix_is_hashed_once(
        self, engine, rng, hash_calls
    ) -> None:
        matrix = banded_matrix(400, 5, seed=6)
        x = rng.standard_normal(matrix.n_cols)
        engine.spmv(matrix, x)
        features = DeltaFeatures(matrix)
        outcome = engine.apply_structure_delta(
            matrix, _small_delta(matrix, rng), features=features
        )
        assert outcome.matrix.is_frozen
        with pytest.raises(ValueError):
            outcome.matrix.data[0] = 1.0

        hash_calls[0] = 0
        for _ in range(4):
            served = engine.spmv(outcome.matrix, x)
            assert np.allclose(
                served.y, outcome.matrix.spmv(x, reference=True), atol=1e-9
            )
        assert hash_calls[0] == 0
        # The next delta retires the memoized key and hashes only the
        # matrix it mints.
        after = engine.apply_structure_delta(
            outcome.matrix, _small_delta(outcome.matrix, rng),
            features=features,
        )
        assert after.old_fingerprint == outcome.fingerprint
        assert hash_calls[0] == 1
        served = engine.spmv(after.matrix, x)
        assert hash_calls[0] == 1
        assert np.allclose(
            served.y, after.matrix.spmv(x, reference=True), atol=1e-9
        )


class CsrTuner(DecideOnlyTuner):
    """Decides CSR for every matrix, so the plan's operand is the very
    matrix of the request that built it."""

    def decide(self, matrix, deadline=None):
        return Decision(
            format_name=FormatName.CSR,
            kernel=kernels_for(FormatName.CSR)[-1],
            confidence=1.0,
            matched_rule=None,
            used_fallback=False,
            predicted_format=FormatName.CSR,
            matrix=matrix,
        )


class TestCsrPlanRunsOnItsRequest:
    """A cached CSR plan must not serve its first caller's arrays after
    that caller edits them in place: its key still names the old
    content, which another matrix may hold."""

    @pytest.fixture()
    def csr_engine(self):
        with ServingEngine(CsrTuner(), ServeConfig(workers=1)) as running:
            yield running

    def test_tier1_hit_after_the_first_caller_edits_values(
        self, csr_engine, rng
    ) -> None:
        matrix = with_dyadic_data(random_csr(rng, n_rows=60, n_cols=60), rng)
        x = np.arange(1.0, 61.0)
        csr_engine.spmv(matrix, x)
        original = CSRMatrix(
            matrix.ptr.copy(), matrix.indices.copy(), matrix.data.copy(),
            matrix.shape,
        )
        matrix.data[:] = 2.0 * matrix.data + 1.0
        served = csr_engine.spmv(original, x)
        assert served.cache_hit
        assert np.array_equal(served.y, original.spmv(x, reference=True))

    def test_tier2_refresh_after_the_first_caller_moves_an_entry(
        self, csr_engine
    ) -> None:
        matrix = CSRMatrix.from_dense(np.diag(np.arange(1.0, 41.0)))
        x = np.arange(1.0, 41.0)
        csr_engine.spmv(matrix, x)
        ptr, indices = matrix.ptr.copy(), matrix.indices.copy()
        matrix.indices[0] = 1  # row 0's only entry moves to column 1
        fresh = CSRMatrix(ptr, indices, np.arange(2.0, 42.0), matrix.shape)
        served = csr_engine.spmv(fresh, x)
        assert served.refreshed
        assert np.array_equal(served.y, fresh.spmv(x, reference=True))


class TestStructureChurnReplay:
    def test_evolving_graph_serves_clean_through_churn(self, engine) -> None:
        ops = evolving_graph_ops(
            nodes=150, steps=5, serves_per_step=3, seed=11
        )
        assert all(op.matrix.is_frozen for op in ops[0])
        report = replay(engine, ops)
        assert report.errors == []
        assert report.mismatches == 0
        assert len(report.results) == 15
        assert len(report.deltas) == 4
        # The fast paths must land — an all-retune run means the delta
        # machinery never engaged (exactly what the CI replay gates on).
        assert any(outcome.policy != "retune" for outcome in report.deltas)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["deltas_applied"] == len(report.deltas)
        assert len(report.deltas) == sum(
            counters[f"delta_{policy}"]
            for policy in ("patches", "refreshes", "retunes")
        )
        # Every delta minted a fresh fingerprint.
        keys = [outcome.fingerprint for outcome in report.deltas]
        assert len(set(keys)) == len(keys)

    def test_replay_validates_arguments(self) -> None:
        with pytest.raises(ValueError):
            evolving_graph_ops(steps=0)
        with pytest.raises(ValueError):
            evolving_graph_ops(delta_fraction=0.0)
