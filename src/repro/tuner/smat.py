"""The SMAT auto-tuner facade (Figure 4).

Offline: :meth:`SMAT.train` runs the kernel search on the target
architecture, labels a matrix collection by measuring each matrix's best
format, trains the C5.0-substitute ruleset model, and bundles everything.
Online: :meth:`SMAT.spmv` is the unified CSR interface — feature extraction,
format prediction (or fallback measurement), conversion and the optimal
kernel, all behind one call.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConversionError, TuningError
from repro.features.extract import extract_features
from repro.features.parameters import FeatureVector
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.learning.dataset import TrainingDataset
from repro.learning.model import LearningModel, train_model
from repro.machine.measure import MeasurementBackend, SimulatedBackend
from repro.machine.presets import INTEL_XEON_X5680
from repro.tuner.config import SmatConfig
from repro.tuner.plan import Plan
from repro.tuner.runtime import Decision, decide
from repro.tuner.search import KernelSearchResult, search_kernels
from repro.types import BASIC_FORMATS, FormatName, Precision


class SMAT:
    """An input adaptive SpMV auto-tuner (satisfies :class:`Tuner`)."""

    #: A plain SMAT never hot-swaps its model (``OnlineSmat`` does).
    model_epoch = 0

    def __init__(
        self,
        model: LearningModel,
        kernels: KernelSearchResult,
        backend: MeasurementBackend,
        config: SmatConfig = SmatConfig(),
    ) -> None:
        self.model = model
        self.kernels = kernels
        self.backend = backend
        self.config = config

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        collection: Iterable,
        backend: Optional[MeasurementBackend] = None,
        config: SmatConfig = SmatConfig(),
        min_leaf: int = 8,
        max_depth: int = 10,
    ) -> "SMAT":
        """The complete offline stage on ``(spec, matrix)`` pairs.

        ``min_leaf=8`` / ``max_depth=10`` keep the tree at C5.0-like
        granularity: specialised formats get sharp (pure) rules while the
        broad CSR rules stay honest about their residual error, which is
        what drives the Table 3 fallback behaviour.
        """
        backend = backend or SimulatedBackend(
            INTEL_XEON_X5680, Precision.DOUBLE
        )
        kernels = search_kernels(backend)
        dataset = build_training_dataset(collection, kernels, backend, config)
        model = train_model(dataset, min_leaf=min_leaf, max_depth=max_depth)
        return cls(model=model, kernels=kernels, backend=backend, config=config)

    @classmethod
    def from_dataset(
        cls,
        dataset: TrainingDataset,
        backend: Optional[MeasurementBackend] = None,
        config: SmatConfig = SmatConfig(),
        min_leaf: int = 8,
        max_depth: int = 10,
    ) -> "SMAT":
        """Offline stage when a labelled feature database already exists."""
        backend = backend or SimulatedBackend(
            INTEL_XEON_X5680, Precision.DOUBLE
        )
        kernels = search_kernels(backend)
        model = train_model(dataset, min_leaf=min_leaf, max_depth=max_depth)
        return cls(model=model, kernels=kernels, backend=backend, config=config)

    # ------------------------------------------------------------------
    # Online stage
    # ------------------------------------------------------------------
    def decide(self, matrix: CSRMatrix, deadline=None) -> Decision:
        """Choose format + kernel for ``matrix`` (Figure 7).

        ``deadline`` (anything with ``remaining() -> seconds``) opts the
        decision into the budgeted cascade; so does setting
        ``config.tune_budget_units``.
        """
        return decide(
            matrix,
            self.model,
            self.kernels,
            self.backend,
            self.config,
            deadline=deadline,
        )

    def prepare(self, matrix: CSRMatrix) -> Plan:
        """Decide once, convert once; returns a reusable SpMV plan."""
        with obs.span("smat.prepare", nnz=int(matrix.nnz)):
            return Plan.of(self.decide(matrix))

    def spmv(
        self, matrix: CSRMatrix, x: np.ndarray
    ) -> Tuple[np.ndarray, Decision]:
        """One-shot tuned SpMV: ``y, decision = smat.spmv(A, x)``."""
        with obs.span("smat.spmv", nnz=int(matrix.nnz)):
            plan = self.prepare(matrix)
            return plan(x), plan.decision

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: Path) -> None:
        """Persist the reusable offline artifacts (model + kernel choices)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.model.save(directory / "model.json")
        kernel_choice = {
            fmt.value: sorted(s.value for s in kernel.strategies)
            for fmt, kernel in self.kernels.kernels.items()
        }
        (directory / "kernels.json").write_text(
            json.dumps(kernel_choice, indent=2)
        )

    @classmethod
    def load(
        cls,
        directory: Path,
        backend: Optional[MeasurementBackend] = None,
        config: SmatConfig = SmatConfig(),
    ) -> "SMAT":
        from repro.kernels.base import find_kernel
        from repro.kernels.strategies import Strategy
        from repro.tuner.scoreboard import PerformanceTable

        directory = Path(directory)
        backend = backend or SimulatedBackend(
            INTEL_XEON_X5680, Precision.DOUBLE
        )
        model = LearningModel.load(directory / "model.json")
        kernel_choice = json.loads((directory / "kernels.json").read_text())
        kernels = {}
        for fmt_name, strategy_names in kernel_choice.items():
            fmt = FormatName(fmt_name)
            strategies = frozenset(Strategy(s) for s in strategy_names)
            kernels[fmt] = find_kernel(fmt, strategies)
        result = KernelSearchResult(kernels=kernels, tables={}, scoreboards={})
        return cls(model=model, kernels=result, backend=backend, config=config)


# ---------------------------------------------------------------------------
# Offline labelling
# ---------------------------------------------------------------------------

def build_training_dataset(
    collection: Iterable,
    kernels: KernelSearchResult,
    backend: MeasurementBackend,
    config: SmatConfig = SmatConfig(),
) -> TrainingDataset:
    """Label every collection matrix with its measured-best format.

    This is the paper's exhaustive offline step: each training matrix is
    converted to each basic format (skipping conversions that blow the
    zero-fill budget — those formats lose by construction) and timed with
    that format's optimal kernel.
    """
    records = []
    for _, matrix in collection:
        features = extract_features(matrix)
        best = label_matrix(matrix, features, kernels, backend, config)
        records.append(features.with_label(best))
    if not records:
        raise TuningError("empty training collection")
    return TrainingDataset(tuple(records))


def label_matrix(
    matrix: CSRMatrix,
    features: FeatureVector,
    kernels: KernelSearchResult,
    backend: MeasurementBackend,
    config: SmatConfig = SmatConfig(),
) -> FormatName:
    """The measured-best format of one matrix (exhaustive search)."""
    needs_matrix = not isinstance(backend, SimulatedBackend)
    best_fmt: Optional[FormatName] = None
    best_time = float("inf")
    for fmt in BASIC_FORMATS:
        target = None
        if needs_matrix:
            try:
                target, _ = convert(
                    matrix, fmt, fill_budget=config.fill_budget
                )
            except ConversionError:
                continue
        else:
            # The simulated backend prices padding analytically; still skip
            # conversions so pathological the tuner would never attempt them.
            padded_ratio = _padding_ratio(fmt, features)
            if (
                config.fill_budget is not None
                and padded_ratio > config.fill_budget
            ):
                continue
        seconds = backend.measure(kernels.kernel_for(fmt), target, features)
        if seconds < best_time:
            best_time = seconds
            best_fmt = fmt
    assert best_fmt is not None  # CSR always succeeds
    return best_fmt


def _padding_ratio(fmt: FormatName, f: FeatureVector) -> float:
    if f.nnz == 0:
        return 1.0
    if fmt is FormatName.DIA:
        return f.ndiags * f.m / f.nnz
    if fmt is FormatName.ELL:
        return f.max_rd * f.m / f.nnz
    return 1.0
