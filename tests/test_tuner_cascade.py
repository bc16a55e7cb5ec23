"""Decision-cascade tests: interval-bound soundness, stage-0 equivalence
with the full walk, budget/deadline floors, and the serving engine's
cascade counters and ruleset hot-swap."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.collection import (
    banded,
    generate_collection,
    graphs,
    random_sparse,
)
from repro.features.cheap import CENSUS_PARAMS, CheapFeatures
from repro.features.extract import extract_features
from repro.features.parameters import FEATURE_NAMES
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import ServeConfig, ServingEngine
from repro.serve.resilience import Deadline
from repro.tuner import SMAT, OnlineSmat, SmatConfig
from repro.tuner.runtime import Decision, cascade_select, full_select
from repro.types import FormatName, Precision


@pytest.fixture(scope="module")
def smat() -> SMAT:
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


def contiguous_band(n: int, n_diags: int, seed: int):
    """A dense band whose occupied span equals max_RD — the shape the
    degree pass pins exactly without any census."""
    return banded.banded_matrix(
        n, n_diags, seed=seed, spread=(n_diags - 1) // 2
    )


def structure_corpus():
    """Shapes covering every cheap-tier path: contiguous band (analytic
    shortcut), spread band (narrow-band census), power-law and uniform
    random (census infeasible), half-empty diagonals, empty rows."""
    sparse = random_sparse.uniform_random(900, 900, 2.0, seed=6)
    return [
        contiguous_band(2000, 5, seed=1),
        banded.banded_matrix(2000, 5, seed=2),
        banded.banded_matrix(1500, 9, seed=5, occupancy=0.5),
        graphs.power_law_graph(1500, exponent=2.2, seed=3),
        random_sparse.uniform_random(1200, 1200, 6.0, seed=4),
        sparse,  # low density leaves some rows empty
    ]


class TestCheapBounds:
    def test_bounds_contain_exact_features(self) -> None:
        for matrix in structure_corpus():
            exact = extract_features(matrix)
            cheap = CheapFeatures(matrix)
            for name in FEATURE_NAMES:
                lo, hi = cheap.get_bound(name)
                value = exact.value(name)
                assert lo - 1e-9 <= value <= hi + 1e-9, (
                    f"{name} bound ({lo}, {hi}) excludes exact {value}"
                )

    def test_census_makes_census_params_exact(self) -> None:
        for matrix in structure_corpus():
            cheap = CheapFeatures(matrix)
            if not cheap.ensure_census():
                continue
            exact = extract_features(matrix)
            for name in CENSUS_PARAMS:
                lo, hi = cheap.get_bound(name)
                assert lo == hi
                assert lo == pytest.approx(exact.value(name))

    def test_degree_params_are_exact_without_census(self) -> None:
        matrix = graphs.power_law_graph(1500, exponent=2.2, seed=3)
        exact = extract_features(matrix)
        cheap = CheapFeatures(matrix)
        for name in ("m", "n", "nnz", "aver_rd", "max_rd", "var_rd",
                     "er_ell"):
            lo, hi = cheap.get_bound(name)
            assert lo == hi == pytest.approx(exact.value(name))
        assert not cheap.census_ran
        assert cheap.cost_units == pytest.approx(0.1)

    def test_contiguous_band_shortcut_skips_census(self) -> None:
        matrix = contiguous_band(3000, 9, seed=1)
        exact = extract_features(matrix)
        cheap = CheapFeatures(matrix)
        # The dense-band analytic bound pins all three census parameters
        # from the degree pass alone.
        for name in CENSUS_PARAMS:
            lo, hi = cheap.get_bound(name)
            assert lo == hi == pytest.approx(exact.value(name))
        assert not cheap.census_ran
        # ...which also makes the structure snapshot available for free.
        snapshot = cheap.structure_snapshot()
        assert snapshot is not None
        assert snapshot["ndiags"] == exact.ndiags

    def test_tightened_bound_spends_census_only_when_needed(self) -> None:
        matrix = banded.banded_matrix(2000, 5, seed=2)  # spread band
        cheap = CheapFeatures(matrix)
        assert cheap.get_bound("ndiags")[0] != cheap.get_bound("ndiags")[1]
        assert not cheap.census_ran
        lo, hi = cheap.tightened_bound("ndiags")
        assert cheap.census_ran and lo == hi
        assert cheap.cost_units == pytest.approx(0.5)

    def test_empty_matrix_bounds(self) -> None:
        from repro.formats.csr import CSRMatrix

        empty = CSRMatrix.from_triplets(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            (4, 4),
        )
        cheap = CheapFeatures(empty)
        assert cheap.get_bound("ndiags") == (0.0, 0.0)
        assert cheap.structure_snapshot() is not None


class TestCascadeSelection:
    def test_stage0_formats_match_full_walk(self, smat) -> None:
        """The interval walk may only resolve when it can prove the full
        walk's answer — so the chosen formats always agree."""
        for matrix in structure_corpus():
            fast = cascade_select(matrix, smat.model, smat.config)
            full = full_select(matrix, smat.model)
            assert fast.format_name == full.format_name
            assert fast.confidence == pytest.approx(full.confidence)
            assert fast.stage in ("cheap", "full")

    def test_cheap_resolution_costs_a_tenth(self, smat) -> None:
        matrix = contiguous_band(3000, 9, seed=1)
        selection = cascade_select(matrix, smat.model, smat.config)
        if selection.stage == "cheap":
            assert selection.cost_units <= 0.5
            assert selection.cost_units < full_select(
                matrix, smat.model
            ).cost_units


class TestCascadeDecide:
    def tuner_with(self, smat, **config_changes) -> SMAT:
        return SMAT(
            smat.model,
            smat.kernels,
            smat.backend,
            replace(smat.config, **config_changes),
        )

    def test_unbudgeted_decide_has_no_stage(self, smat) -> None:
        decision = smat.decide(contiguous_band(2000, 5, seed=1))
        assert decision.cascade_stage is None

    def test_budgeted_decide_matches_unbudgeted_format(self, smat) -> None:
        tuner = self.tuner_with(smat, tune_budget_units=500.0)
        for matrix in structure_corpus():
            budgeted = tuner.decide(matrix)
            plain = smat.decide(matrix)
            assert budgeted.cascade_stage in (
                "cheap", "full", "measure", "floor"
            )
            # A huge budget never floors, so the choice is identical.
            assert budgeted.cascade_stage != "floor"
            assert budgeted.format_name == plain.format_name

    def test_tight_budget_floors_to_csr(self, smat) -> None:
        tuner = self.tuner_with(smat, tune_budget_units=0.05)
        matrix = contiguous_band(2500, 7, seed=2)
        decision = tuner.decide(matrix)
        assert decision.cascade_stage == "floor"
        assert decision.format_name is FormatName.CSR
        assert decision.degraded_to_csr == (
            decision.predicted_format is not FormatName.CSR
        )
        # The floor decision still serves correct products.
        x = np.ones(matrix.n_cols)
        np.testing.assert_allclose(
            decision.kernel(decision.matrix, x), matrix.spmv(x), atol=1e-9
        )

    def test_expired_deadline_floors(self, smat) -> None:
        matrix = graphs.power_law_graph(1500, exponent=2.2, seed=3)
        expired = Deadline(time.monotonic() - 1.0)
        decision = smat.decide(matrix, deadline=expired)
        assert decision.cascade_stage == "floor"
        assert decision.format_name is FormatName.CSR

    def test_roomy_deadline_escalates(self, smat) -> None:
        matrix = graphs.power_law_graph(1500, exponent=2.2, seed=3)
        decision = smat.decide(matrix, deadline=Deadline.after(60.0))
        assert decision.cascade_stage in ("cheap", "full", "measure")
        assert decision.format_name == smat.decide(matrix).format_name

    def test_low_confidence_with_budget_measures(self, smat) -> None:
        tuner = self.tuner_with(
            smat, confidence_threshold=1.0, tune_budget_units=1000.0
        )
        matrix = random_sparse.uniform_random(1200, 1200, 6.0, seed=4)
        decision = tuner.decide(matrix)
        assert decision.cascade_stage == "measure"
        assert decision.used_fallback and decision.measurements
        # The cheap pass's cost is charged, not dropped.
        assert decision.extraction_units >= 0.1

    def test_cascade_stage_serialization_round_trip(self, smat) -> None:
        tuner = self.tuner_with(smat, tune_budget_units=0.05)
        decision = tuner.decide(contiguous_band(2500, 7, seed=2))
        assert decision.cascade_stage == "floor"
        revived = Decision.from_dict(decision.to_dict())
        assert revived.cascade_stage == "floor"
        assert revived.format_name is decision.format_name
        # Pre-cascade records deserialize with no stage.
        payload = decision.to_dict()
        del payload["cascade_stage"]
        assert Decision.from_dict(payload).cascade_stage is None


class TestServingIntegration:
    def test_cascade_counters_partition_cold_builds(self, smat) -> None:
        tuner = SMAT(
            smat.model,
            smat.kernels,
            smat.backend,
            replace(smat.config, tune_budget_units=500.0),
        )
        pool = structure_corpus()
        with ServingEngine(tuner, ServeConfig(workers=1)) as engine:
            for matrix in pool:
                engine.spmv(matrix, np.ones(matrix.n_cols))
            counters = engine.metrics.snapshot()["counters"]
        staged = (
            counters["cascade_cheap_hits"]
            + counters["cascade_full_hits"]
            + counters["cascade_measure_decisions"]
            + counters["cascade_floor_decisions"]
        )
        assert staged == counters["plans_built"] == len(pool)

    def test_hot_swap_observed_by_engine(self, smat) -> None:
        online = OnlineSmat(
            SMAT(smat.model, smat.kernels, smat.backend, smat.config)
        )
        pool = structure_corpus()
        with ServingEngine(online, ServeConfig(workers=1)) as engine:
            engine.spmv(pool[0], np.ones(pool[0].n_cols))
            counters = engine.metrics.snapshot()["counters"]
            assert counters["ruleset_swaps"] == 0
            epoch = online.install_model(smat.model)
            assert epoch == 1
            # The swap is observed on the next cold build.
            engine.spmv(pool[1], np.ones(pool[1].n_cols))
            counters = engine.metrics.snapshot()["counters"]
            assert counters["ruleset_swaps"] == 1

    def test_concurrent_decides_race_hot_swap(self, smat) -> None:
        """ISSUE satellite: decide() threads racing install_model must
        never see a torn model or crash; every decision stays valid."""
        online = OnlineSmat(
            SMAT(smat.model, smat.kernels, smat.backend, smat.config)
        )
        errors: list = []
        decided: list = []
        installs = 6

        def worker(slot: int) -> None:
            try:
                for i in range(12):
                    matrix = random_sparse.uniform_random(
                        700, 700, 6.0, seed=100 * slot + i
                    )
                    decision = online.decide(matrix)
                    decided.append(decision)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(3)
        ]
        for t in threads:
            t.start()
        for _ in range(installs):
            online.install_model(smat.model)
        for t in threads:
            t.join()

        assert not errors
        assert len(decided) == 36
        assert all(d.kernel is not None for d in decided)
        # Installs all landed; racing decides never lost an epoch bump.
        assert online.model_epoch == installs
