"""Pluggable SpMV engines for the AMG solver.

The paper's Table 4 experiment swaps exactly one thing inside Hypre: the
SpMV kernel behind the A- and P-operators.  :class:`CsrEngine` is the
Hypre baseline (every operator stays CSR); :class:`SmatEngine` routes every
operator through the SMAT tuner, which picks DIA for fine-level
A-operators, ELL for most P-operators, and so on.

Each prepared operator carries a *simulated* per-apply time from the cost
model, so the bench can report Table 4's execution times deterministically;
wall-clock timing of the real NumPy kernels works too.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.features.extract import extract_features
from repro.formats.csr import CSRMatrix
from repro.kernels.base import find_kernel
from repro.kernels.strategies import Strategy, strategy_set
from repro.machine.costmodel import estimate_spmv_time
from repro.machine.measure import SimulatedBackend
from repro.tuner.plan import Plan
from repro.types import FormatName


class PreparedOperator(Plan):
    """A plan with apply-time accounting."""

    __slots__ = ("seconds_per_apply", "applies")

    def __init__(self, matrix, kernel, decision=None) -> None:
        super().__init__(matrix, kernel, decision)
        #: Simulated seconds for one apply (0.0 when no simulated backend).
        self.seconds_per_apply = 0.0
        self.applies = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self.kernel(self.matrix, x)

    @property
    def setup_units(self) -> float:
        """One-time tuning + conversion cost in CSR-SpMV units."""
        return self.decision.overhead_units if self.decision else 0.0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time spent in this operator so far."""
        return self.applies * self.seconds_per_apply


class SpmvEngine(Protocol):
    """Anything that can turn a CSR operator into a prepared SpMV."""

    def prepare(self, matrix: CSRMatrix) -> PreparedOperator: ...


class CsrEngine:
    """The Hypre baseline: every operator stays in CSR."""

    def __init__(self, backend: Optional[SimulatedBackend] = None) -> None:
        self.backend = backend
        self._kernel = find_kernel(
            FormatName.CSR,
            strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL),
        )

    def prepare(self, matrix: CSRMatrix) -> PreparedOperator:
        operator = PreparedOperator(matrix, self._kernel)
        if self.backend is not None:
            operator.seconds_per_apply = estimate_spmv_time(
                self.backend.arch,
                FormatName.CSR,
                extract_features(matrix),
                self.backend.precision,
                self._kernel.strategies,
            )
        return operator


class SmatEngine:
    """SMAT-tuned operators: per-level format and kernel selection."""

    def __init__(self, smat) -> None:
        self.smat = smat

    def prepare(self, matrix: CSRMatrix) -> PreparedOperator:
        decision = self.smat.decide(matrix)
        operator = PreparedOperator.of(decision)
        if isinstance(self.smat.backend, SimulatedBackend):
            # Priced from the registry kernel even when a compiled one
            # serves: the simulated machine prices strategy sets, and a
            # generated kernel's set carries no thread scaling.
            operator.seconds_per_apply = estimate_spmv_time(
                self.smat.backend.arch,
                decision.format_name,
                extract_features(matrix),
                self.smat.backend.precision,
                decision.kernel.strategies,
            )
        return operator
