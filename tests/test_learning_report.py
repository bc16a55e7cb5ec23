"""Evaluation-report tests: confusion matrix, per-class metrics, slowdown."""

from __future__ import annotations

import math

import pytest

from repro.features.parameters import FeatureVector
from repro.learning import TrainingDataset
from repro.learning.report import evaluate
from repro.types import FormatName


def record(label: FormatName, marker: float) -> FeatureVector:
    return FeatureVector(
        m=1000, n=1000, ndiags=10, ntdiags_ratio=0.5, nnz=5000,
        aver_rd=marker, max_rd=int(marker * 2) + 1, var_rd=1.0,
        er_dia=0.5, er_ell=0.5, r=math.inf, best_format=label,
    )


@pytest.fixture
def dataset() -> TrainingDataset:
    # 6 CSR (marker 10), 4 COO (marker 2).
    records = [record(FormatName.CSR, 10.0) for _ in range(6)]
    records += [record(FormatName.COO, 2.0) for _ in range(4)]
    return TrainingDataset(tuple(records))


def threshold_predictor(features: FeatureVector) -> FormatName:
    """Predicts COO below aver_rd 5 — but misses nothing by construction."""
    return FormatName.COO if features.aver_rd < 5 else FormatName.CSR


def broken_predictor(features: FeatureVector) -> FormatName:
    return FormatName.CSR


class TestEvaluate:
    def test_perfect_predictor(self, dataset) -> None:
        report = evaluate(threshold_predictor, dataset)
        assert report.accuracy == 1.0
        csr = report.metrics_for(FormatName.CSR)
        assert csr.precision == 1.0 and csr.recall == 1.0 and csr.f1 == 1.0
        assert csr.support == 6

    def test_all_csr_predictor(self, dataset) -> None:
        report = evaluate(broken_predictor, dataset)
        assert report.accuracy == pytest.approx(0.6)
        coo = report.metrics_for(FormatName.COO)
        assert coo.recall == 0.0
        assert coo.support == 4
        # CSR precision suffers from absorbing the COO records.
        csr = report.metrics_for(FormatName.CSR)
        assert csr.precision == pytest.approx(0.6)
        assert csr.recall == 1.0

    def test_confusion_counts(self, dataset) -> None:
        report = evaluate(broken_predictor, dataset)
        assert report.confusion[FormatName.COO][FormatName.CSR] == 4
        assert report.confusion[FormatName.CSR][FormatName.CSR] == 6

    def test_slowdown_with_cost_fn(self, dataset) -> None:
        def cost(features: FeatureVector, fmt: FormatName) -> float:
            # The wrong format costs 3x on COO records.
            if features.best_format is FormatName.COO:
                return 3.0 if fmt is FormatName.CSR else 1.0
            return 1.0

        report = evaluate(broken_predictor, dataset, cost_fn=cost)
        # 6 records at 1.0, 4 records at 3.0 -> mean 1.8.
        assert report.mean_slowdown == pytest.approx(1.8)

    def test_describe_renders_table(self, dataset) -> None:
        text = evaluate(threshold_predictor, dataset).describe()
        assert "accuracy: 100.0%" in text
        assert "precision" in text and "CSR" in text

    def test_unknown_class_lookup(self, dataset) -> None:
        report = evaluate(
            threshold_predictor,
            dataset,
            classes=(FormatName.CSR, FormatName.COO),
        )
        with pytest.raises(KeyError):
            report.metrics_for(FormatName.DIA)

    def test_empty_dataset(self) -> None:
        report = evaluate(broken_predictor, TrainingDataset(()))
        assert report.accuracy == 1.0
        assert report.mean_slowdown is None

    def test_real_model_report(self) -> None:
        """Integration: evaluate a real trained model with a real cost fn."""
        from repro.collection import generate_collection
        from repro.machine import (
            INTEL_XEON_X5680,
            SimulatedBackend,
            estimate_spmv_time,
        )
        from repro.kernels.strategies import Strategy, strategy_set
        from repro.tuner import search_kernels
        from repro.tuner.smat import build_training_dataset
        from repro.learning import train_model
        from repro.types import Precision

        backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
        kernels = search_kernels(backend)
        ds = build_training_dataset(
            generate_collection(scale=0.05, size_scale=0.35, seed=17),
            kernels, backend,
        )
        train, test = ds.split(0.25, seed=2)
        model = train_model(train)
        strategies = strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL)

        def cost(features, fmt):
            return estimate_spmv_time(
                INTEL_XEON_X5680, fmt, features, Precision.DOUBLE, strategies
            )

        report = evaluate(model.predict_format, test, cost_fn=cost)
        assert report.accuracy > 0.7
        assert report.mean_slowdown is not None
        # Misprediction cost stays mild: the model errs on near-ties.
        assert report.mean_slowdown < 1.6
