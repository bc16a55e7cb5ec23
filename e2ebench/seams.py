"""Outside-in seams for the traced run: a forwarding tuner proxy and a
wrapping AMG SpMV engine.  Neither changes what the wrapped object does;
both only record spans around the calls they forward.  The untraced run
uses the bare objects, so its end-to-end numbers carry no proxy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from e2ebench.stats import Recorder


class TunerProxy:
    """Forwards ``decide`` to a tuner and records each call and Decision.

    The serving engine probes ``decide``'s signature for ``deadline`` and
    reads ``model``/``config``/``kernels``/``smat``/``model_epoch`` off
    its tuner (delta re-decisions, provisional plans, hot-swap counting),
    and ``SmatEngine`` reads ``backend``; forwarding exactly those keeps
    the engine's behaviour identical to running on the bare tuner.
    """

    FORWARDED = ("model", "config", "kernels", "smat", "model_epoch", "backend")

    def __init__(self, tuner, recorder: Recorder) -> None:
        self._tuner = tuner
        self._recorder = recorder
        self._lock = threading.Lock()
        self._by_matrix: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self._by_thread = threading.local()
        #: One :class:`DecideCall` per forwarded call, in completion order.
        self.calls: List[DecideCall] = []

    def __getattr__(self, name: str):
        if name in TunerProxy.FORWARDED:
            return getattr(self._tuner, name)
        raise AttributeError(name)

    def expect(self, matrix, op: Optional[int], parent: Optional[int]) -> None:
        """Attribute a later decide on ``matrix`` (made by an engine
        worker) to caller op ``op`` and its span ``parent``."""
        with self._lock:
            self._by_matrix[id(matrix)] = (op, parent)

    def within(self, op: Optional[int], parent: Optional[int]) -> None:
        """Attribute decides made on this thread (synchronous calls such
        as ``apply_structure_delta``) to ``op``; ``None`` clears it."""
        self._by_thread.owner = (op, parent)

    def decide(self, matrix, deadline=None):
        with self._lock:
            owner = self._by_matrix.get(id(matrix))
        if owner is None:
            owner = getattr(self._by_thread, "owner", None) or (None, None)
        start = time.perf_counter()
        decision = self._tuner.decide(matrix, deadline=deadline)
        span = self._recorder.add(
            "tuner.decide", start, time.perf_counter(), owner[1], owner[0]
        )
        call = DecideCall(
            seconds=span.duration,
            end=span.end,
            format_name=decision.format_name.value,
            stage=decision.cascade_stage,
            used_fallback=decision.used_fallback,
            compiled=decision.compiled_kernel is not None,
            overhead_units=decision.overhead_units,
            extraction_units=decision.extraction_units,
            conversion_units=decision.conversion_units,
            measurement_units=decision.measurement_units,
            codegen_units=decision.codegen_units,
        )
        with self._lock:
            self.calls.append(call)
        return decision


@dataclass(frozen=True)
class DecideCall:
    """What one forwarded ``decide`` cost and chose.  Scalars only: holding
    the Decision would keep every converted matrix alive after eviction."""

    seconds: float
    end: float
    format_name: str
    stage: Optional[str]
    used_fallback: bool
    compiled: bool
    overhead_units: float
    extraction_units: float
    conversion_units: float
    measurement_units: float
    codegen_units: float


class TimedOperator:
    """A prepared AMG operator whose every apply is recorded as a span."""

    def __init__(self, inner, recorder: Recorder, clock: "SolveClock") -> None:
        self._inner = inner
        self._recorder = recorder
        self._clock = clock

    def __call__(self, x):
        start = time.perf_counter()
        y = self._inner(x)
        self._recorder.add(
            "amg.spmv",
            start,
            time.perf_counter(),
            self._clock.parent,
            self._clock.op,
        )
        return y

    @property
    def format_name(self):
        return self._inner.format_name

    @property
    def simulated_seconds(self) -> float:
        return self._inner.simulated_seconds


class SolveClock:
    """Which solve span the operator applies currently belong to."""

    def __init__(self) -> None:
        self.parent: Optional[int] = None
        self.op: Optional[int] = None


class TimedSpmvEngine:
    """Wraps an ``SpmvEngine``: records each ``prepare`` and hands back
    operators that record each apply."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.clock = SolveClock()

    def prepare(self, matrix):
        start = time.perf_counter()
        operator = self._inner.prepare(matrix)
        self._recorder.add("amg.prepare", start, time.perf_counter())
        return TimedOperator(operator, self._recorder, self.clock)
