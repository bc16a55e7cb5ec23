"""The runtime decision procedure (Section 6, Figure 7).

Given an input CSR matrix:

1. extract features lazily (step one now, the power-law fit only if the
   COO group is ever consulted),
2. walk the format groups in DIA, ELL, CSR, COO order; the first group with
   a matching rule is the prediction,
3. if the group's format confidence clears the threshold, done — otherwise
   trigger execute-and-measure over the cheap candidates (CSR, COO and the
   predicted format) and return the measured winner.

Every step's cost is accounted in CSR-SpMV units, reproducing Table 3's
overhead column.

When ``SmatConfig.tune_budget_units`` is set (or the caller passes a
request deadline), the procedure becomes a *budgeted cascade*:

- **stage 0 ("cheap")** walks the same trained ruleset over interval
  bounds from an O(rows) degree pass (:class:`CheapFeatures`) using
  three-valued logic — a stage-0 answer is provably identical to the
  full walk, never a guess from a weaker model;
- **stage 1 ("full")** runs the classic lazy extraction, only when the
  bounds could not resolve the walk and the budget/deadline allow it;
- **stage 2 ("measure")** is the execute-and-measure fallback, gated the
  same way;
- **the floor** serves CSR with no conversion when the budget is gone —
  the identity plan costs nothing and is never wrong, just not optimal.

``Decision.cascade_stage`` records where the cascade stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ConversionError, TuningError
from repro.features.cheap import CheapFeatures
from repro.features.incremental import (
    DeltaFeatures,
    LazyFeatures,
    STRUCTURE_COST_SPMV_UNITS,
)
from repro.features.parameters import FeatureVector
from repro.formats.base import SparseMatrix
from repro.formats.convert import conversion_cost, convert
from repro.formats.csr import CSRMatrix
from repro.kernels.base import Kernel
from repro.learning.model import LearningModel
from repro.learning.rules import Rule
from repro.machine.measure import MeasurementBackend
from repro.tuner.config import FALLBACK_CANDIDATES, SmatConfig
from repro.tuner.search import KernelSearchResult
from repro.types import FormatName


@dataclass
class Decision:
    """The outcome of one runtime tuning decision."""

    format_name: FormatName
    kernel: Kernel
    confidence: float
    matched_rule: Optional[Rule]
    used_fallback: bool
    #: Format the model predicted (equals format_name on a model hit).
    predicted_format: FormatName
    #: Fallback measurements, seconds per candidate format.
    measurements: Dict[FormatName, float] = field(default_factory=dict)
    #: Overhead accounting, all in units of one CSR SpMV.
    extraction_units: float = 0.0
    conversion_units: float = 0.0
    measurement_units: float = 0.0
    #: Charge for kernel-backend specialization (codegen emit/compile plus
    #: the beat-or-keep audit probes); 0.0 under the generic backend.
    codegen_units: float = 0.0
    #: True when a model hit predicted a format whose conversion blew the
    #: zero-fill budget and the decision fell back to running CSR; the
    #: wasted attempt is charged in ``conversion_units``.  The budgeted
    #: cascade also sets it when the overhead floor overrides a non-CSR
    #: prediction.
    degraded_to_csr: bool = False
    #: Which cascade stage produced this decision ("cheap", "full",
    #: "measure" or "floor"); None for the unbudgeted procedure.
    cascade_stage: Optional[str] = None
    #: The matrix already converted to ``format_name`` (fallback path
    #: converts while measuring; the model-hit path converts on demand).
    matrix: Optional[SparseMatrix] = None
    #: Features extracted while deciding (fallback snapshots everything);
    #: downstream consumers — the online learner labelling its training
    #: records — reuse them instead of re-running extraction.  Like
    #: ``matrix``, this is runtime state and is not serialized.
    features: Optional[FeatureVector] = None
    #: Backend-specialized kernel (a compiled codegen artifact) that beat
    #: ``kernel`` on this matrix; ``None`` keeps the registry kernel.
    #: Runtime state like ``matrix`` — never serialized; a reloaded
    #: decision rebuilds it from structure.
    compiled_kernel: Optional[Kernel] = None

    @property
    def overhead_units(self) -> float:
        """Total decision overhead in CSR-SpMV units (Table 3's column)."""
        return (
            self.extraction_units
            + self.conversion_units
            + self.measurement_units
            + self.codegen_units
        )

    @property
    def serving_kernel(self) -> Kernel:
        """The kernel products should run: compiled if attached, else generic."""
        return self.compiled_kernel or self.kernel

    # ------------------------------------------------------------------
    # Serialization — decisions are loggable/inspectable records.  The
    # converted matrix is deliberately *not* serialized (it can be huge
    # and is rebuildable from the source matrix); ``from_dict`` resolves
    # the kernel from a KernelSearchResult and leaves ``matrix`` None.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready record of this decision (no matrix payload)."""
        return {
            "format": self.format_name.value,
            "kernel_strategies": sorted(
                s.value for s in self.kernel.strategies
            ),
            "confidence": self.confidence,
            "matched_rule": (
                self.matched_rule.to_dict()
                if self.matched_rule is not None
                else None
            ),
            "used_fallback": self.used_fallback,
            "predicted_format": self.predicted_format.value,
            "measurements": {
                fmt.value: seconds
                for fmt, seconds in self.measurements.items()
            },
            "extraction_units": self.extraction_units,
            "conversion_units": self.conversion_units,
            "measurement_units": self.measurement_units,
            "codegen_units": self.codegen_units,
            "degraded_to_csr": self.degraded_to_csr,
            "cascade_stage": self.cascade_stage,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Decision":
        """Rebuild a decision record from :meth:`to_dict` output.

        The kernel is resolved from the registered kernel library by
        (format, strategy set) — the same resolution :meth:`SMAT.load`
        uses — so the record stays portable across processes.
        """
        from repro.kernels.base import find_kernel
        from repro.kernels.strategies import Strategy

        fmt = FormatName(payload["format"])
        strategies = frozenset(
            Strategy(s) for s in payload["kernel_strategies"]  # type: ignore[union-attr]
        )
        rule_payload = payload.get("matched_rule")
        return cls(
            format_name=fmt,
            kernel=find_kernel(fmt, strategies),
            confidence=float(payload["confidence"]),  # type: ignore[arg-type]
            matched_rule=(
                Rule.from_dict(rule_payload)  # type: ignore[arg-type]
                if rule_payload is not None
                else None
            ),
            used_fallback=bool(payload["used_fallback"]),
            predicted_format=FormatName(payload["predicted_format"]),
            measurements={
                FormatName(name): float(seconds)
                for name, seconds in payload["measurements"].items()  # type: ignore[union-attr]
            },
            extraction_units=float(payload["extraction_units"]),  # type: ignore[arg-type]
            conversion_units=float(payload["conversion_units"]),  # type: ignore[arg-type]
            measurement_units=float(payload["measurement_units"]),  # type: ignore[arg-type]
            # Absent pre-backend; those decisions never specialized.
            codegen_units=float(payload.get("codegen_units", 0.0)),  # type: ignore[arg-type]
            # Absent in records written before the degrade path was
            # surfaced; those decisions never degraded.
            degraded_to_csr=bool(payload.get("degraded_to_csr", False)),
            # Absent pre-cascade; those decisions ran the unbudgeted path.
            cascade_stage=payload.get("cascade_stage"),  # type: ignore[arg-type]
        )


def rule_matches_lazy(rule: Rule, lazy: LazyFeatures) -> bool:
    """Evaluate a rule against lazily-extracted features.

    Conditions pull exactly the parameters they mention, so a DIA rule never
    triggers the power-law fit — the optimistic early-exit of Section 6.
    """
    return all(
        _condition_matches(cond, lazy) for cond in rule.conditions
    )


def _condition_matches(cond, lazy: LazyFeatures) -> bool:
    value = lazy.get(cond.attribute)
    if cond.operator == "<=":
        return value <= cond.threshold
    return value > cond.threshold


# ----------------------------------------------------------------------
# Three-valued rule evaluation over interval bounds (cascade stage 0).
# A condition is TRUE/FALSE only when *provable* from the bounds;
# anything else is UNKNOWN and forces escalation, so a stage-0 verdict
# is always identical to what the full extraction would have produced.
# ----------------------------------------------------------------------
_TRUE, _FALSE, _UNKNOWN = 1, 0, -1


def _eval_bound(bound, cond) -> int:
    lo, hi = bound
    if cond.operator == "<=":
        if hi <= cond.threshold:
            return _TRUE
        if lo > cond.threshold:
            return _FALSE
        return _UNKNOWN
    if lo > cond.threshold:
        return _TRUE
    if hi <= cond.threshold:
        return _FALSE
    return _UNKNOWN


def _condition_tristate(cond, cheap: CheapFeatures) -> int:
    state = _eval_bound(cheap.get_bound(cond.attribute), cond)
    if state == _UNKNOWN:
        # Only an unresolved condition is worth the narrow-band census;
        # tightened_bound is a no-op when the census cannot help.
        state = _eval_bound(cheap.tightened_bound(cond.attribute), cond)
    return state


def _rule_tristate(rule: Rule, cheap: CheapFeatures) -> int:
    state = _TRUE
    for cond in rule.conditions:
        s = _condition_tristate(cond, cheap)
        if s == _FALSE:
            return _FALSE
        if s == _UNKNOWN:
            state = _UNKNOWN
    return state


Prediction = Tuple[FormatName, float, Optional[Rule]]


def _cheap_walk(
    model: LearningModel, cheap: CheapFeatures
) -> Tuple[Optional[Prediction], bool]:
    """Walk the rule groups over interval bounds.

    Returns ``(prediction, resolved)``.  ``resolved`` is True only when
    the bounds prove the same *format outcome* the full walk would reach:
    either some rule is provably TRUE with every earlier group provably
    missed (a later UNKNOWN rule in the *same* group cannot change the
    group's format or confidence), or every rule everywhere is provably
    FALSE (the default-format miss).
    """
    for group in model.grouped.groups:
        group_unknown = False
        for rule in group.rules:
            s = _rule_tristate(rule, cheap)
            if s == _TRUE:
                return (
                    (group.format_name, group.format_confidence, rule),
                    True,
                )
            if s == _UNKNOWN:
                group_unknown = True
        if group_unknown:
            return None, False
    return (model.grouped.default_format, 0.0, None), True


def _model_walk(model: LearningModel, lazy: LazyFeatures) -> Prediction:
    """The classic Figure 7 group walk over (lazily) exact features."""
    for group in model.grouped.groups:
        for rule in group.rules:
            if rule_matches_lazy(rule, lazy):
                return group.format_name, group.format_confidence, rule
    return model.grouped.default_format, 0.0, None


def decide(
    matrix: CSRMatrix,
    model: LearningModel,
    kernels: KernelSearchResult,
    backend: MeasurementBackend,
    config: SmatConfig = SmatConfig(),
    deadline=None,
) -> Decision:
    """Run the Figure 7 procedure on one input matrix.

    ``deadline`` is anything with a ``remaining() -> seconds`` method
    (duck-typed to avoid importing the serving layer); passing one — or
    setting ``config.tune_budget_units`` — switches to the budgeted
    cascade.
    """
    cascading = (
        config.tune_budget_units is not None or deadline is not None
    ) and not config.always_measure
    span_name = "tune.cascade" if cascading else "tune.decide"
    with obs.span(
        span_name, rows=int(matrix.n_rows), nnz=int(matrix.nnz)
    ) as span:
        if cascading:
            decision = _decide_cascade(
                matrix, model, kernels, backend, config, deadline
            )
        else:
            decision = _decide(matrix, model, kernels, backend, config)
        try:
            specialize_kernel(
                decision,
                config.kernel_backend,
                config.tune_budget_units if cascading else None,
            )
        except Exception:
            pass  # specialization can never fail a decision
        if span is not None:
            span.attrs.update(
                format=decision.format_name.value,
                predicted=decision.predicted_format.value,
                confidence=round(decision.confidence, 4),
                used_fallback=decision.used_fallback,
            )
            if cascading:
                span.attrs.update(
                    stage=decision.cascade_stage,
                    budget_units=config.tune_budget_units,
                    spent_units=round(decision.overhead_units, 3),
                )
        return decision


def specialize_kernel(
    decision: Decision,
    backend_name: str,
    budget_units: Optional[float] = None,
) -> None:
    """Let the named kernel backend specialize ``decision``'s kernel.

    The one place a kernel backend runs, for the tuner and the serving
    engine alike.  The backend sees the converted matrix and the registry
    kernel the rule walk picked, and may attach a compiled replacement
    (``decision.compiled_kernel``); its projected cost is charged to
    ``decision.codegen_units``.  Nothing happens under the generic
    backend, without a converted matrix, or when ``budget_units`` cannot
    absorb the cost on top of what the decision already spent — the
    decision then keeps the generic kernel.  A backend failure
    (``CodegenError`` or any other) propagates with the decision
    untouched; callers keep the generic kernel.
    """
    if backend_name == "generic" or decision.matrix is None:
        return
    from repro.kernels.backends import get_backend

    backend = get_backend(backend_name)
    cost = backend.overhead_units(decision.matrix)
    if (
        budget_units is not None
        and decision.overhead_units + cost > budget_units
    ):
        return
    specialized = backend.specialize(decision.matrix, decision.kernel)
    decision.codegen_units = cost
    if specialized is not decision.kernel:
        decision.compiled_kernel = specialized


def _decide(
    matrix: CSRMatrix,
    model: LearningModel,
    kernels: KernelSearchResult,
    backend: MeasurementBackend,
    config: SmatConfig,
) -> Decision:
    lazy = LazyFeatures(matrix)

    if config.always_measure:
        return _fallback(
            matrix, lazy, FALLBACK_CANDIDATES, kernels, backend, config,
            predicted=FormatName.CSR, confidence=0.0, rule=None,
        )

    fmt, confidence, rule = _model_walk(model, lazy)
    if confidence > config.confidence_threshold or config.never_measure:
        converted, degraded = _convert_for(matrix, fmt, config)
        # A blown zero-fill budget degrades the prediction to CSR: the
        # model was wrong about feasibility, and running CSR beats paying
        # a pathological conversion.  The abandoned attempt still walked
        # the matrix to price its fill, so the *predicted* format's
        # conversion is what Table 3 charges — not the free CSR identity.
        actual = converted.format_name
        return Decision(
            format_name=actual,
            kernel=kernels.kernel_for(actual),
            confidence=confidence,
            matched_rule=rule,
            used_fallback=False,
            predicted_format=fmt,
            extraction_units=lazy.extraction_cost_spmv_units(),
            conversion_units=conversion_cost(
                FormatName.CSR, fmt if degraded else actual, matrix
            ),
            degraded_to_csr=degraded,
            matrix=converted,
        )

    candidates = tuple(dict.fromkeys((fmt,) + FALLBACK_CANDIDATES))
    return _fallback(
        matrix, lazy, candidates, kernels, backend, config,
        predicted=fmt, confidence=confidence, rule=rule,
    )


# ----------------------------------------------------------------------
# The budgeted cascade.
# ----------------------------------------------------------------------

#: Heuristic seconds per CSR-SpMV unit used to translate a request's
#: remaining deadline into affordable overhead units: ~4ns per nonzero
#: (two flops + streaming traffic on commodity cores), doubled for
#: safety before anything is allowed to start.
_EST_UNIT_SECONDS_PER_NNZ = 4e-9
_DEADLINE_SAFETY = 2.0


@dataclass(frozen=True)
class CascadeSelection:
    """Selection-only cascade probe result (no conversion, no timing)."""

    format_name: FormatName
    confidence: float
    matched_rule: Optional[Rule]
    stage: str
    cost_units: float


def cascade_select(
    matrix: CSRMatrix,
    model: LearningModel,
    config: SmatConfig = SmatConfig(),
    features: Optional[DeltaFeatures] = None,
) -> CascadeSelection:
    """Run only the *selection* part of the cascade: cheap bounds walk,
    escalating to full lazy extraction when unresolved.  No conversion
    and no measurement — this is the decision-overhead kernel the
    ``tune/cascade_overhead`` benchmark times against always-full
    extraction.

    ``features`` maintained across structure deltas for ``matrix``
    answer the walk outright: stage ``"delta"``, zero extraction units.
    """
    if features is not None:
        fmt, confidence, rule = _model_walk(model, features.seed_lazy(matrix))
        return CascadeSelection(fmt, confidence, rule, "delta", 0.0)
    cheap = CheapFeatures(
        matrix, census_max_diags=config.cheap_census_max_diags
    )
    prediction, resolved = _cheap_walk(model, cheap)
    cost = cheap.cost_units
    stage = "cheap"
    if not resolved:
        lazy = LazyFeatures(matrix, structure=cheap.structure_snapshot())
        prediction = _model_walk(model, lazy)
        cost += lazy.extraction_cost_spmv_units()
        stage = "full"
    assert prediction is not None
    fmt, confidence, rule = prediction
    return CascadeSelection(fmt, confidence, rule, stage, cost)


def full_select(
    matrix: CSRMatrix, model: LearningModel
) -> CascadeSelection:
    """The always-full selection baseline: one lazy extraction, one walk.

    This is what every pre-cascade decision paid before converting or
    measuring anything — the denominator of the ``tune/cascade_overhead``
    benchmark.
    """
    lazy = LazyFeatures(matrix)
    fmt, confidence, rule = _model_walk(model, lazy)
    return CascadeSelection(
        fmt, confidence, rule, "full", lazy.extraction_cost_spmv_units()
    )


def _estimated_conversion_units(
    fmt: FormatName, cheap: CheapFeatures
) -> float:
    """Price a conversion from bounds alone — same analytic model as
    ``formats.convert.conversion_cost`` but without touching the matrix
    (the real DIA costing walks the diagonal census, which is exactly
    the work the cascade is trying not to pay).  Upper bounds are used,
    so the gate errs toward the floor, never past the budget."""
    if fmt is FormatName.CSR:
        return 0.0
    if fmt is FormatName.COO:
        return 1.5
    nnz = max(cheap.get_bound("nnz")[0], 1.0)
    m = cheap.get_bound("m")[0]
    if fmt is FormatName.ELL:
        max_rd = cheap.get_bound("max_rd")[1]
        return (2.0 * nnz + 2.0 * max_rd * m) / (2.0 * nnz)
    if fmt is FormatName.DIA:
        ndiags = cheap.get_bound("ndiags")[1]
        return (2.0 * nnz + ndiags * m) / (2.0 * nnz)
    return 2.0


def _decide_cascade(
    matrix: CSRMatrix,
    model: LearningModel,
    kernels: KernelSearchResult,
    backend: MeasurementBackend,
    config: SmatConfig,
    deadline,
) -> Decision:
    budget = config.tune_budget_units
    est_unit_seconds = _EST_UNIT_SECONDS_PER_NNZ * max(int(matrix.nnz), 1)
    spent = 0.0

    def allows(units_needed: float) -> bool:
        """True when spending ``units_needed`` more CSR-SpMV units fits
        both the explicit budget and the remaining deadline."""
        if budget is not None and spent + units_needed > budget:
            return False
        if deadline is not None:
            seconds = units_needed * est_unit_seconds * _DEADLINE_SAFETY
            if seconds > deadline.remaining():
                return False
        return True

    def floor(
        predicted: FormatName,
        confidence: float,
        rule: Optional[Rule],
    ) -> Decision:
        """Serve the CSR identity plan: zero conversion, never wrong."""
        return Decision(
            format_name=FormatName.CSR,
            kernel=kernels.kernel_for(FormatName.CSR),
            confidence=confidence,
            matched_rule=rule,
            used_fallback=False,
            predicted_format=predicted,
            extraction_units=spent,
            degraded_to_csr=predicted is not FormatName.CSR,
            matrix=matrix,
            cascade_stage="floor",
        )

    # Stage 0 — interval bounds from the O(rows) degree pass.
    cheap = CheapFeatures(
        matrix, census_max_diags=config.cheap_census_max_diags
    )
    prediction, resolved = _cheap_walk(model, cheap)
    spent += cheap.cost_units
    stage = "cheap"
    lazy: Optional[LazyFeatures] = None

    if not resolved:
        # Stage 1 — full extraction, if the structure pass is affordable.
        if not allows(STRUCTURE_COST_SPMV_UNITS):
            return floor(FormatName.CSR, 0.0, None)
        stage = "full"
        lazy = LazyFeatures(matrix, structure=cheap.structure_snapshot())
        prediction = _model_walk(model, lazy)
        spent += lazy.extraction_cost_spmv_units()

    assert prediction is not None
    fmt, confidence, rule = prediction

    if confidence > config.confidence_threshold or config.never_measure:
        if not allows(_estimated_conversion_units(fmt, cheap)):
            return floor(fmt, confidence, rule)
        converted, degraded = _convert_for(matrix, fmt, config)
        actual = converted.format_name
        return Decision(
            format_name=actual,
            kernel=kernels.kernel_for(actual),
            confidence=confidence,
            matched_rule=rule,
            used_fallback=False,
            predicted_format=fmt,
            extraction_units=spent,
            conversion_units=conversion_cost(
                FormatName.CSR, fmt if degraded else actual, matrix
            ),
            degraded_to_csr=degraded,
            matrix=converted,
            cascade_stage=stage,
        )

    # Stage 2 — execute-and-measure, if the whole fallback is affordable.
    candidates = tuple(dict.fromkeys((fmt,) + FALLBACK_CANDIDATES))
    measure_estimate = config.fallback_repeats * len(candidates) + sum(
        _estimated_conversion_units(c, cheap) for c in candidates
    )
    if not allows(measure_estimate):
        return floor(fmt, confidence, rule)
    if lazy is None:
        lazy = LazyFeatures(matrix, structure=cheap.structure_snapshot())
    return _fallback(
        matrix, lazy, candidates, kernels, backend, config,
        predicted=fmt, confidence=confidence, rule=rule,
        extra_extraction_units=cheap.cost_units,
        cascade_stage="measure",
    )


def _fallback(
    matrix: CSRMatrix,
    lazy: LazyFeatures,
    candidates: Tuple[FormatName, ...],
    kernels: KernelSearchResult,
    backend: MeasurementBackend,
    config: SmatConfig,
    predicted: FormatName,
    confidence: float,
    rule: Optional[Rule],
    extra_extraction_units: float = 0.0,
    cascade_stage: Optional[str] = None,
) -> Decision:
    """Execute-and-measure: benchmark the candidates, keep the fastest."""
    with obs.span(
        "tune.fallback",
        candidates=",".join(c.value for c in candidates),
    ):
        features = lazy.snapshot()
        with obs.span(
            "tune.measure", format=FormatName.CSR.value, reference=True
        ):
            csr_unit_seconds = backend.measure(
                kernels.kernel_for(FormatName.CSR), matrix, features
            )
        if csr_unit_seconds <= 0.0:
            raise TuningError("CSR reference measurement returned zero time")

        measurements: Dict[FormatName, float] = {}
        converted: Dict[FormatName, SparseMatrix] = {}
        # The CSR reference timing above is real measurement work and
        # belongs in Table 3's column: fallback_repeats runs at one CSR
        # unit each.
        measurement_units = float(config.fallback_repeats)
        for candidate in candidates:
            if candidate is FormatName.CSR:
                # The reference measurement *is* the CSR candidate: same
                # kernel, same matrix (identity conversion).  Reuse it
                # instead of paying a second timing pass.
                converted[candidate] = matrix
                measurements[candidate] = csr_unit_seconds
                continue
            with obs.span("tune.measure", format=candidate.value):
                try:
                    cand_matrix, cost = convert(
                        matrix, candidate, fill_budget=config.fill_budget
                    )
                except ConversionError:
                    continue  # blow-up guard: candidate priced out
                converted[candidate] = cand_matrix
                seconds = backend.measure(
                    kernels.kernel_for(candidate), cand_matrix, features
                )
                measurements[candidate] = seconds
                measurement_units += cost.csr_spmv_units()
                measurement_units += (
                    config.fallback_repeats * seconds / csr_unit_seconds
                )

    if not measurements:
        raise TuningError(
            f"no fallback candidate among {candidates} was convertible"
        )
    best = min(measurements, key=lambda f: measurements[f])
    return Decision(
        format_name=best,
        kernel=kernels.kernel_for(best),
        confidence=confidence,
        matched_rule=rule,
        used_fallback=True,
        predicted_format=predicted,
        measurements=measurements,
        extraction_units=(
            lazy.extraction_cost_spmv_units() + extra_extraction_units
        ),
        conversion_units=0.0,  # conversions are inside measurement_units
        measurement_units=measurement_units,
        matrix=converted[best],
        features=features,
        cascade_stage=cascade_stage,
    )


def _convert_for(
    matrix: CSRMatrix, fmt: FormatName, config: SmatConfig
) -> Tuple[SparseMatrix, bool]:
    """Convert a model-hit prediction, degrading to CSR if the conversion
    blows the zero-fill budget (the model was wrong about feasibility).

    Returns ``(converted, degraded)`` so the caller can charge the wasted
    attempt and surface the degradation on the decision record.
    """
    try:
        out, _ = convert(matrix, fmt, fill_budget=config.fill_budget)
        return out, False
    except ConversionError:
        return matrix, True
