"""Value-refresh fast path vs a full retune (the tier-2 cache's payoff).

Two levels:

* format level — ``refresh_values`` (structure reused, cached scatter
  plan, values rebuilt) against a from-scratch conversion of the churned
  CSR, per target format, plus the gate measurement: refresh against the
  full retune a tier-1 miss would otherwise pay (feature extraction +
  conversion).  The gate entry is merged into ``BENCH_perf.json`` under
  ``plan/value_refresh`` so the perf trajectory tracks it.
* engine level — a value-churn workload (same structures, fresh values)
  replayed through the serving engine with the tier-2 structure index on
  vs off, comparing wall clock and plan-build counts.

The acceptance gate (also enforced by ``repro bench-perf
--assert-speedup``): refresh must beat the full retune by at least 5x.
"""

from __future__ import annotations

import json

import numpy as np

from benchmarks.conftest import emit
from repro.collection import banded
from repro.features.extract import extract_structure_features
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.types import FormatName
from repro.util.timing import median_time

#: The CI gate: value refresh must beat extraction + reconversion by this.
MIN_SPEEDUP = 5.0

#: Formats refreshed from the banded matrix.
BAND_TARGETS = (
    FormatName.DIA,
    FormatName.ELL,
    FormatName.COO,
)


def _churned(matrix: CSRMatrix) -> CSRMatrix:
    """The same sparsity structure with a fresh value array."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal(matrix.nnz).astype(matrix.dtype)
    return CSRMatrix(matrix.ptr, matrix.indices, data, matrix.shape)


def test_refresh_vs_retune_gate(report_dir, capsys, benchmark) -> None:
    band = banded.banded_matrix(25_000, 9, seed=2013)

    lines = [
        "Value refresh vs reconversion (structure reused, values rebuilt)",
        f"{'format':8s} {'refresh':>10s} {'reconvert':>10s} {'speedup':>9s}",
    ]
    for fmt in BAND_TARGETS:
        converted, _ = convert(band, fmt, fill_budget=None)
        churned = _churned(band)
        converted.refresh_values(churned)  # prime the cached scatter plan
        refresh_s = median_time(
            lambda: converted.refresh_values(churned), repeats=3
        )
        reconvert_s = median_time(
            lambda: convert(churned, fmt, fill_budget=None), repeats=3
        )
        ratio = reconvert_s / refresh_s if refresh_s > 0 else 0.0
        lines.append(
            f"{fmt.value:8s} {refresh_s * 1e3:9.3f}m {reconvert_s * 1e3:9.3f}m"
            f" {ratio:8.1f}x"
        )
        # Refresh reuses every structure array; it must never lose to a
        # from-scratch conversion (generous slack for timing noise).
        assert ratio > 0.8, (fmt, ratio)

    # The gate measurement: refresh vs the *full retune* a tier-1 miss
    # pays without the structure index — extraction plus conversion.
    dia, _ = convert(band, FormatName.DIA, fill_budget=None)
    churned = _churned(band)
    dia.refresh_values(churned)
    refresh_s = median_time(lambda: dia.refresh_values(churned), repeats=5)
    retune_s = median_time(
        lambda: (
            extract_structure_features(churned),
            convert(churned, FormatName.DIA, fill_budget=None),
        ),
        repeats=5,
    )
    gate = retune_s / refresh_s if refresh_s > 0 else 0.0
    lines.append("")
    lines.append(
        f"gate: refresh {refresh_s * 1e3:.3f}ms vs retune "
        f"{retune_s * 1e3:.3f}ms = {gate:.1f}x (required "
        f">= {MIN_SPEEDUP:.0f}x)"
    )
    emit(capsys, report_dir, "refresh_vs_retune", "\n".join(lines))

    # Merge the gate number into BENCH_perf.json so the perf trajectory
    # includes it even when this bench runs standalone.
    bench_path = report_dir / "BENCH_perf.json"
    report = (
        json.loads(bench_path.read_text()) if bench_path.exists() else
        {"bench": "perf_regression", "ops": {}}
    )
    report["ops"]["plan/value_refresh"] = {
        "median_s": refresh_s,
        "retune_median_s": retune_s,
        "speedup_vs_retune": gate,
    }
    bench_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    assert gate >= MIN_SPEEDUP, (
        f"value refresh only {gate:.1f}x faster than a full retune "
        f"(required >= {MIN_SPEEDUP:.0f}x)"
    )

    benchmark(lambda: dia.refresh_values(churned))


def test_value_churn_serving(smat, report_dir, capsys) -> None:
    from repro.serve import (
        ServeConfig,
        ServingEngine,
        build_matrix_pool,
        churn_schedule,
        replay,
        schedule_ops,
        value_churn_pool,
    )

    structures, updates = 6, 8
    base = build_matrix_pool(structures, seed=2013, size_scale=0.5)
    pool = value_churn_pool(base, updates, seed=2013)
    schedule = churn_schedule(structures, updates, seed=2013)
    ops = schedule_ops(pool, schedule, clients=2, seed=99)

    def run(structure_cache: bool):
        config = ServeConfig(workers=2, structure_cache=structure_cache)
        with ServingEngine(smat, config) as engine:
            report = replay(engine, ops)
            counters = engine.metrics.snapshot()["counters"]
        assert not report.errors, report.errors
        assert report.mismatches == 0
        return report, counters

    fast_report, fast = run(structure_cache=True)
    slow_report, slow = run(structure_cache=False)

    expected_refreshes = structures * (updates - 1)
    assert fast["plans_refreshed"] == expected_refreshes
    assert fast["plans_built"] == structures
    assert slow["plans_refreshed"] == 0
    assert slow["plans_built"] == structures * updates

    ratio = (
        slow_report.wall_seconds / fast_report.wall_seconds
        if fast_report.wall_seconds > 0 else 0.0
    )
    emit(
        capsys,
        report_dir,
        "value_churn_serving",
        "\n".join([
            f"Value-churn serving: {structures} structures x "
            f"{updates} value updates",
            f"  tier-2 on : {fast_report.wall_seconds * 1e3:8.1f}ms wall, "
            f"{int(fast['plans_built'])} builds, "
            f"{int(fast['plans_refreshed'])} refreshes",
            f"  tier-2 off: {slow_report.wall_seconds * 1e3:8.1f}ms wall, "
            f"{int(slow['plans_built'])} builds",
            f"  wall-clock ratio: {ratio:.2f}x",
        ]),
    )
