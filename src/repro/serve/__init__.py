"""``repro.serve`` — a concurrent SpMV serving layer.

SMAT's premise is that the tuning decision is made once per matrix and
amortized over many products (Table 3's overhead column).  This package
turns that premise into a service: a fingerprint-keyed plan cache in front
of the tuner, a bounded request queue with worker threads and
same-fingerprint batching, and a metrics registry that makes the
amortization observable.

Failure semantics extend SMAT's own degradation principle (no confident
rule → execute-and-measure) to runtime: end-to-end request deadlines,
bounded retries for transient execute failures, and a per-fingerprint
circuit breaker that degrades to the always-correct CSR reference plan
when plan builds keep failing (``repro.serve.resilience``).  Every path
is testable through deterministic fault injection
(``repro.serve.faults``).

>>> from repro.serve import ServingEngine
>>> with ServingEngine(smat) as engine:
...     y = engine.spmv(matrix, x, deadline=0.5).y
...     print(engine.scoreboard())
"""

from repro.serve.engine import (
    DeltaOutcome,
    ServeConfig,
    ServeResult,
    ServingEngine,
)
from repro.serve.faults import (
    FaultPlan,
    FaultRule,
    InjectedFatalFault,
    InjectedFault,
)
from repro.serve.fingerprint import (
    Fingerprint,
    StructureKey,
    fingerprint,
    structural_digest,
)
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serve.plancache import PlanCache
from repro.serve.resilience import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.serve.workload import (
    ReplayReport,
    build_matrix_pool,
    churn_schedule,
    evolving_graph_delta,
    evolving_graph_ops,
    fan_in_ops,
    popularity_schedule,
    replay,
    schedule_ops,
    value_churn_pool,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Counter",
    "Deadline",
    "DeltaOutcome",
    "FaultPlan",
    "FaultRule",
    "Fingerprint",
    "Gauge",
    "Histogram",
    "InjectedFatalFault",
    "InjectedFault",
    "MetricsRegistry",
    "PlanCache",
    "ReplayReport",
    "RetryPolicy",
    "ServeConfig",
    "ServeResult",
    "ServingEngine",
    "StructureKey",
    "build_matrix_pool",
    "churn_schedule",
    "evolving_graph_delta",
    "evolving_graph_ops",
    "fan_in_ops",
    "fingerprint",
    "popularity_schedule",
    "replay",
    "schedule_ops",
    "structural_digest",
    "value_churn_pool",
]
