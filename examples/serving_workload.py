#!/usr/bin/env python
"""Serving workload: the plan cache amortizing tuning cost under load.

Trains a small SMAT instance, wraps it in a ServingEngine, and replays a
skewed multi-client workload (many requests over a modest pool of
matrices — the shape of an iterative-solver or web-service deployment).
The scoreboard at the end shows what the serving layer buys: each
distinct matrix pays for feature extraction, the Figure-7 decision, and
format conversion exactly once; every later request for the same
structure reuses the cached plan and goes straight to the kernel.

A second stage demonstrates the failure semantics: every request gets an
end-to-end deadline, and a seeded fault plan forces the first plan
builds to fail — the engine degrades to the always-correct CSR reference
plan (metered as ``degraded_requests``), the per-fingerprint circuit
breaker stops re-tuning, and once the fault window passes a half-open
probe restores tuned serving.

Run:  python examples/serving_workload.py
"""

from __future__ import annotations

import numpy as np

from repro.collection import generate_collection
from repro.features.extract import EXTRACTION_EVENTS
from repro.formats.convert import CONVERSION_EVENTS
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import (
    FaultPlan,
    FaultRule,
    ServeConfig,
    ServingEngine,
    build_matrix_pool,
    popularity_schedule,
    replay,
    schedule_ops,
)
from repro.tuner import SMAT
from repro.types import Precision


def main() -> None:
    print("=== SMAT serving workload ===")
    print("Offline stage: training a reduced SMAT instance...")
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    smat = SMAT.train(
        generate_collection(scale=0.05, size_scale=0.4, seed=42),
        backend=backend,
    )

    pool = build_matrix_pool(16, seed=7, size_scale=0.6)
    schedule = popularity_schedule(len(pool), 200, seed=8)
    print(f"\nServing stage: {len(schedule)} requests over {len(pool)} "
          "distinct matrices, 4 client threads, 4 workers.")

    extractions = EXTRACTION_EVENTS.count
    conversions = CONVERSION_EVENTS.count
    config = ServeConfig(workers=4, queue_capacity=128, cache_entries=64)
    with ServingEngine(smat, config) as engine:
        report = replay(engine, schedule_ops(pool, schedule, seed=3))
        print()
        print(engine.scoreboard())

    print()
    print(f"throughput      : {report.throughput_rps:8.0f} requests/s")
    print(f"plan-cache hits : {report.cache_hit_rate:8.1%}")
    print(f"verified        : {len(report.results)}/{report.requests} "
          "products match the reference kernel")
    print(f"feature passes  : "
          f"{EXTRACTION_EVENTS.delta_since(extractions)} "
          f"(for {len(pool)} distinct matrices, not "
          f"{report.requests} requests)")
    print(f"conversions     : "
          f"{CONVERSION_EVENTS.delta_since(conversions)}")

    assert not report.errors and report.mismatches == 0
    sample = pool[0]
    x = np.ones(sample.n_cols)
    direct, _ = smat.spmv(sample, x)
    with ServingEngine(smat) as engine:
        # Every request can carry an end-to-end deadline (seconds over
        # queue wait + plan build + execute); a generous one here.
        served = engine.spmv(sample, x, deadline=30.0)
    assert np.array_equal(served.y, direct), "served != direct SMAT.spmv"
    print("\nServed results are bitwise identical to direct SMAT.spmv().")

    print("\nResilience stage: forcing the first 3 plan builds to fail...")
    faults = FaultPlan(
        [FaultRule(site="decide", kind="transient", start=0, stop=3)]
    )
    config = ServeConfig(
        workers=1, breaker_threshold=2, breaker_probe_interval=1,
        default_deadline=30.0,
    )
    with ServingEngine(smat, config, faults=faults) as engine:
        reference = sample.spmv(x, reference=True)
        for i in range(5):
            result = engine.spmv(sample, x)
            assert np.allclose(result.y, reference, atol=1e-9)
            print(f"  request {i}: "
                  + ("degraded -> CSR reference plan"
                     if result.degraded else
                     f"tuned plan ({result.format_name.value}"
                     f"/{result.kernel_name})"))
        counters = engine.metrics.snapshot()["counters"]
    print(f"  degraded_requests={counters['degraded_requests']}, "
          f"plan_build_failures={counters['plan_build_failures']}, "
          f"breaker recovered={counters['breaker_recovered']} — "
          "every request answered correctly throughout.")


if __name__ == "__main__":
    main()
