"""Online-learning and host-calibration tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import generate_collection, graphs, random_sparse
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.machine.calibrate import calibrate_host
from repro.tuner import SMAT, SmatConfig
from repro.tuner.online import OnlineSmat
from repro.types import Precision


@pytest.fixture(scope="module")
def smat():
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


class TestOnlineSmat:
    def test_fallbacks_become_training_records(self, smat) -> None:
        config = SmatConfig(always_measure=True)
        forced = SMAT(smat.model, smat.kernels, smat.backend, config)
        online = OnlineSmat(forced, retrain_every=1000)
        for seed in range(5):
            online.decide(
                random_sparse.uniform_random(1500, 1500, 8.0, seed=seed)
            )
        assert online.observations == 5
        assert all(
            r.best_format is not None for r in online.new_records
        )

    def test_fallback_label_reuses_decision_snapshot(self, smat) -> None:
        """ISSUE satellite: the fallback already snapshotted every feature,
        so labelling its training record must not extract again."""
        from repro.features.extract import EXTRACTION_EVENTS

        config = SmatConfig(always_measure=True)
        forced = SMAT(smat.model, smat.kernels, smat.backend, config)
        online = OnlineSmat(forced, retrain_every=1000)
        matrix = random_sparse.uniform_random(1500, 1500, 8.0, seed=3)
        before = EXTRACTION_EVENTS.count
        decision = online.decide(matrix)
        assert decision.used_fallback
        # Exactly one structure pass: the decision's own lazy snapshot.
        # A redundant labelling extraction would make this 2.
        assert EXTRACTION_EVENTS.delta_since(before) == 1
        assert online.observations == 1
        record = online.new_records[-1]
        assert record.best_format is not None
        assert record.as_dict() == pytest.approx(
            decision.features.with_label(record.best_format).as_dict()
        )

    def test_model_hits_add_nothing(self, smat) -> None:
        online = OnlineSmat(smat, retrain_every=1000)
        from repro.collection import banded

        decision = online.decide(banded.banded_matrix(2000, 5, seed=1))
        if not decision.used_fallback:
            assert online.observations == 0

    def test_retraining_happens_on_schedule(self, smat) -> None:
        config = SmatConfig(always_measure=True)
        forced = SMAT(
            smat.model, smat.kernels, smat.backend, config
        )
        online = OnlineSmat(forced, retrain_every=3)
        for seed in range(7):
            if seed % 2 == 0:
                matrix = random_sparse.uniform_random(
                    1500, 1500, 8.0, seed=seed
                )
            else:
                matrix = graphs.power_law_graph(
                    2000, exponent=2.2, seed=seed
                )
            online.decide(matrix)
        assert online.retrain_count >= 2

    def test_spmv_stays_correct_while_learning(self, smat) -> None:
        config = SmatConfig(always_measure=True)
        forced = SMAT(smat.model, smat.kernels, smat.backend, config)
        online = OnlineSmat(forced, retrain_every=2)
        for seed in range(4):
            matrix = random_sparse.uniform_random(800, 800, 6.0, seed=seed)
            x = np.ones(800)
            y, _ = online.spmv(matrix, x)
            np.testing.assert_allclose(y, matrix.spmv(x), atol=1e-9)

    def test_validation(self, smat) -> None:
        with pytest.raises(ValueError, match="retrain_every"):
            OnlineSmat(smat, retrain_every=0)

    def test_delegates_to_wrapped_smat(self, smat) -> None:
        online = OnlineSmat(smat)
        assert online.kernels is smat.kernels


class TestOnlineSmatConcurrency:
    """ISSUE satellite: threads sharing one OnlineSmat (e.g. through a
    serving engine) must not corrupt the record store or observe a
    half-retrained model."""

    def test_concurrent_decides_lose_no_records(self, smat) -> None:
        import threading

        config = SmatConfig(always_measure=True)
        forced = SMAT(smat.model, smat.kernels, smat.backend, config)
        online = OnlineSmat(forced, retrain_every=10)
        per_thread, threads_n = 20, 4
        errors = []

        def worker(slot: int) -> None:
            try:
                for i in range(per_thread):
                    matrix = random_sparse.uniform_random(
                        600, 600, 6.0, seed=1000 * slot + i
                    )
                    online.decide(matrix)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        # Every fallback observation survived: no lost updates.
        assert online.observations == per_thread * threads_n
        records = online.records_snapshot()
        assert len(records) == per_thread * threads_n
        assert all(r.best_format is not None for r in records)

    def test_reads_during_concurrent_retrain(self, smat) -> None:
        import threading

        config = SmatConfig(always_measure=True)
        forced = SMAT(smat.model, smat.kernels, smat.backend, config)
        online = OnlineSmat(forced, retrain_every=5)
        stop = threading.Event()
        errors = []

        def reader() -> None:
            try:
                previous = 0
                while not stop.is_set():
                    snapshot = online.records_snapshot()
                    # Monotone growth, never a torn read.
                    assert len(snapshot) >= previous
                    previous = len(snapshot)
                    # The model reference is always a complete model.
                    assert online.smat.model.grouped is not None
            except BaseException as exc:
                errors.append(exc)

        def writer(slot: int) -> None:
            try:
                for i in range(12):
                    if slot % 2 == 0:
                        matrix = random_sparse.uniform_random(
                            700, 700, 7.0, seed=300 * slot + i
                        )
                    else:
                        matrix = graphs.power_law_graph(
                            900, exponent=2.2, seed=300 * slot + i
                        )
                    online.decide(matrix)
            except BaseException as exc:
                errors.append(exc)

        reader_thread = threading.Thread(target=reader)
        writers = [
            threading.Thread(target=writer, args=(slot,))
            for slot in range(2)
        ]
        reader_thread.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        reader_thread.join()

        assert not errors
        assert online.observations == 24
        assert online.retrain_count >= 2


class TestRetrainTrigger:
    """ISSUE satellite: a retrain skipped for a single-class dataset must
    re-fire as soon as a second class appears — the old exact-multiple
    trigger (``len % retrain_every == 0``) stayed silent until the next
    boundary."""

    def test_refires_after_single_class_skip(self, smat) -> None:
        config = SmatConfig(always_measure=True)
        forced = SMAT(smat.model, smat.kernels, smat.backend, config)
        online = OnlineSmat(forced, retrain_every=3)
        # Three dense uniform matrices all label CSR: the scheduled
        # retrain at record 3 skips (one class) and must stay armed.
        for seed in range(3):
            online.decide(
                random_sparse.uniform_random(1200, 1200, 8.0, seed=seed)
            )
        assert online.retrain_count == 0
        labels = {r.best_format for r in online.records_snapshot()}
        assert len(labels) == 1
        # Record 4 brings a second class.  4 % 3 != 0, so the buggy
        # trigger would wait until record 6; the fixed one fires now.
        online.decide(graphs.power_law_graph(2000, exponent=2.2, seed=5))
        assert len({r.best_format for r in online.records_snapshot()}) == 2
        assert online.retrain_count == 1
        assert online.model_epoch == 1

    def test_model_epoch_tracks_every_swap(self, smat) -> None:
        online = OnlineSmat(smat, retrain_every=1000)
        assert online.model_epoch == 0
        assert online.install_model(smat.model) == 1
        assert online.install_model(smat.model) == 2
        assert online.model_epoch == 2
        # install_model is a push, not a retrain.
        assert online.retrain_count == 0


class TestCalibration:
    def test_calibrated_architecture_sane(self) -> None:
        result = calibrate_host(repeats=2)
        arch = result.architecture
        assert arch.memory_bandwidth_gbs > 0
        assert arch.cache_bandwidth_gbs >= arch.memory_bandwidth_gbs
        assert result.small_seconds < result.large_seconds
        assert "calibrated" in result.describe()

    def test_calibrated_backend_ranks_formats(self) -> None:
        import math

        from repro.features.parameters import FeatureVector
        from repro.kernels.strategies import Strategy, strategy_set
        from repro.machine import estimate_spmv_time
        from repro.types import FormatName

        result = calibrate_host(repeats=2)
        fv = FeatureVector(
            m=50_000, n=50_000, ndiags=5, ntdiags_ratio=1.0, nnz=250_000,
            aver_rd=5.0, max_rd=5, var_rd=0.1, er_dia=1.0, er_ell=1.0,
            r=math.inf,
        )
        strategies = strategy_set(Strategy.VECTORIZE)
        dia = estimate_spmv_time(
            result.architecture, FormatName.DIA, fv,
            Precision.DOUBLE, strategies,
        )
        csr = estimate_spmv_time(
            result.architecture, FormatName.CSR, fv,
            Precision.DOUBLE, strategies,
        )
        # On any host the calibrated model keeps DIA ahead on banded input,
        # matching the measured wall-clock ordering.
        assert dia < csr
