"""One prepared SpMV operator, and the tuner protocol that produces it.

SMAT's online stage (Figure 4) decides once, converts once and hands back
one operator that every later product reuses.  :class:`Plan` is that
operator for every path that serves products: ``SMAT.prepare``/``spmv``,
``OnlineSmat``, the serving engine's plan cache and its degraded
fallback, and the AMG engines (whose ``PreparedOperator`` adds only
simulated-time accounting).  The kernel a plan runs is bound once, at
construction: the decision's compiled codegen artifact when one is
attached, else its registry kernel.  The kernel's name and the operand's
format are bound with it, so a served request reads them instead of
re-deriving them.

Each plan also carries its :class:`SpmmVerdicts`: per power-of-two
width, whether one SpMM beat k calls of the plan's serving kernel on
live groups, which is what decides whether the serving engine stacks a
same-fingerprint group.

:class:`Tuner` is everything the serving engine and the AMG engine read
off a tuner.  ``SMAT`` and ``OnlineSmat`` satisfy it; nothing checks it
at run time.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spmm import spmm_fallback, spmm_kernel_for
from repro.learning.model import LearningModel
from repro.tuner.config import SmatConfig
from repro.tuner.runtime import Decision

#: Timings each path needs before a width bucket's verdict is settled.
#: One of each let a single noisy group pick a plan's path for good.
VERDICT_SAMPLES = 3

#: Kernel name a degraded plan reports (``ServeResult.kernel_name``).
DEGRADED_KERNEL_NAME = "csr-reference-degraded"


class Tuner(Protocol):
    """What the serving engine and the AMG library path read off a tuner.

    ``deadline`` (anything with ``remaining() -> seconds``) opts a
    decision into the budgeted cascade.  ``model`` and ``config`` let the
    engine re-decide a structure delta on maintained features;
    ``model_epoch`` rises on every ruleset hot-swap.
    """

    model: LearningModel
    config: SmatConfig
    model_epoch: int

    def decide(self, matrix: CSRMatrix, deadline=None) -> Decision: ...


def width_bucket(k: int) -> int:
    """The power-of-two bucket of a k-RHS group: 2-3 -> 2, 4-7 -> 4, ..."""
    return 1 << (k.bit_length() - 1)


class SpmmVerdicts:
    """Per width bucket: does one SpMM beat k calls of the serving kernel?

    Stacking a group saves operand traffic, but the serving kernel is
    often compiled for this very structure while the SpMM kernel is
    generic and pays for the stacking and its k-wide gathers.  Which path
    wins depends on the plan and the width, so no fixed k* per format is
    right.  The verdict is measured on live groups: while a bucket is
    open its groups alternate between the two paths, each group running
    exactly one of them, until each path has ``VERDICT_SAMPLES`` per-RHS
    timings.  The path with the lower minimum then serves every later
    group in that bucket.  Nothing is measured at plan build.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: bucket -> groups routed (stacked, per request) while open.
        self._routed: Dict[int, List[int]] = {}
        #: bucket -> per-RHS seconds (stacked, per request) while open.
        self._samples: Dict[int, Tuple[List[float], List[float]]] = {}
        #: bucket -> settled verdict (True stacks).
        self._stack: Dict[int, bool] = {}

    def choose(self, k: int) -> Tuple[bool, bool]:
        """(stack this k-RHS group?, is it a measurement?)."""
        bucket = width_bucket(k)
        with self._lock:
            stack = self._stack.get(bucket)
            if stack is not None:
                return stack, False
            routed = self._routed.setdefault(bucket, [0, 0])
            stack = routed[0] <= routed[1]
            routed[0 if stack else 1] += 1
            return stack, True

    def record(self, k: int, stacked: bool, per_rhs: float) -> None:
        """Add one measured group's per-RHS seconds to its bucket."""
        bucket = width_bucket(k)
        with self._lock:
            if bucket in self._stack:
                return
            samples = self._samples.setdefault(bucket, ([], []))
            samples[0 if stacked else 1].append(per_rhs)
            if min(map(len, samples)) >= VERDICT_SAMPLES:
                self._stack[bucket] = min(samples[0]) < min(samples[1])
                del self._samples[bucket]
                self._routed.pop(bucket, None)

    def settled(self) -> Dict[int, bool]:
        """Settled verdicts by bucket (True: the bucket's groups stack)."""
        with self._lock:
            return dict(self._stack)


def _reference_spmv(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    return matrix.spmv(x, reference=True)


class Plan:
    """A matrix in its tuned format, bound to the kernel that serves it.

    ``decision`` is the tuning decision the plan was bound from (None for
    a degraded plan or an untuned one).  A *degraded* plan
    (:meth:`reference`) serves the CSR row-loop reference kernel,
    ``CSRMatrix.spmv(reference=True)``: the oracle every tuned kernel is
    validated against, correct for any input and needing no tuning.
    """

    __slots__ = (
        "matrix",
        "kernel",
        "decision",
        "degraded",
        "format_name",
        "kernel_name",
        "verdicts",
        "_spmm",
    )

    def __init__(
        self,
        matrix: SparseMatrix,
        kernel,
        decision: Optional[Decision] = None,
        degraded: bool = False,
    ) -> None:
        self.matrix = matrix
        self.kernel = kernel
        self.decision = decision
        self.degraded = degraded
        self.format_name = matrix.format_name
        self.kernel_name = DEGRADED_KERNEL_NAME if degraded else kernel.name
        #: Per-width verdicts on stacking a same-fingerprint group into
        #: one SpMM.  A value refresh shares its donor's verdicts (same
        #: structure, same kernels); a structure delta or a fresh build
        #: starts new ones.
        self.verdicts = SpmmVerdicts()
        self._spmm = None if degraded else spmm_kernel_for(self.format_name)

    @classmethod
    def of(cls, decision: Decision) -> "Plan":
        """Bind ``decision``'s converted matrix to its serving kernel."""
        if decision.matrix is None:
            raise ValueError("a Plan needs the decision's converted matrix")
        return cls(decision.matrix, decision.serving_kernel, decision)

    @classmethod
    def reference(cls, matrix: CSRMatrix) -> "Plan":
        """The degraded plan for ``matrix``: the CSR reference kernel."""
        if not isinstance(matrix, CSRMatrix):
            raise TypeError(
                "the reference plan serves CSR inputs only, got "
                f"{type(matrix).__name__}"
            )
        return cls(matrix, _reference_spmv, degraded=True)

    def refreshed(self, matrix: SparseMatrix) -> "Plan":
        """This plan over ``matrix``, a same-structure operand with new
        values.  The kernel carries over: a compiled kernel folds only
        structure, so it stays valid across a value refresh."""
        plan = Plan.of(replace(self.decision, matrix=matrix))
        plan.verdicts = self.verdicts
        return plan

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Run the plan's kernel on one operand vector."""
        return self.kernel(self.matrix, x)

    @property
    def native_spmm(self) -> bool:
        """True when the plan's format has a multi-RHS kernel.  The
        engine stacks groups only for such plans: anywhere else SpMM is
        the serving kernel run column by column, which cannot win.  A
        degraded plan never stacks."""
        return self._spmm is not None

    def spmm(self, X: np.ndarray) -> np.ndarray:
        """Run the plan on a column-stacked RHS block ``(n_cols, k)``.

        Formats with a native multi-RHS kernel make one pass over the
        converted operand; everything else (COO, and degraded
        plans) runs the plan's own kernel column by column — same
        results, no amortisation.
        """
        if self._spmm is not None:
            return self._spmm(self.matrix, X)
        return spmm_fallback(
            self.matrix, X, spmv=lambda col: self.kernel(self.matrix, col)
        )

