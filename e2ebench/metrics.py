"""Metric names, units and how each is computed from a phase.

``END_TO_END`` and ``PER_LAYER`` are the single list of record: the run
prints exactly these names, and a test checks that ``BENCHMARK.json``
declares the same names, units and directions.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence, Tuple

from e2ebench.stats import (
    Recorder,
    Tally,
    Window,
    cut_windows,
    mean,
    percentile,
    steady,
)
from e2ebench.workloads import FORMATS, STAGES, Phase, Workload

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SPMM_WIDTHS = (2, 4, 8, 32)
POLICIES = ("patch", "refresh", "retune")
REDECISIONS = ("delta", "cheap", "full", "none")

PER_LAYER = {
    # Caller-side figures the end-to-end list cannot carry: p99 of a
    # 15-second run moved by more than any allowed bound between runs of
    # one commit, and updates exist only in graph_churn.
    "latency_p99_ms": ("ms", "lower"),
    "update_p50_ms": ("ms", "lower"),
    "update_p90_ms": ("ms", "lower"),
    "error_rate": ("ratio", "lower"),
    "serve.submit_ms": ("ms", "lower"),
    "serve.queue_ms": ("ms", "lower"),
    "serve.handoff_ms": ("ms", "lower"),
    "serve.plan_ms": ("ms", "lower"),
    "serve.tier1_hit_share": ("ratio", "higher"),
    "serve.refresh_share": ("ratio", "higher"),
    "serve.execute_ms": ("ms", "lower"),
    "serve.batched_share": ("ratio", "higher"),
    "serve.batch_rhs_mean": ("count", "higher"),
    "serve.degraded_share": ("ratio", "lower"),
    **{f"kernels.spmv_ms.{f}": ("ms", "lower") for f in FORMATS},
    **{f"kernels.spmm_ms_per_rhs.b{w}": ("ms", "lower") for w in SPMM_WIDTHS},
    "kernels.codegen_exec_share": ("ratio", "higher"),
    "tuner.decide_ms": ("ms", "lower"),
    "tuner.decide_count": ("count", "lower"),
    "tuner.overhead_units": ("csr_spmv", "lower"),
    "tuner.extraction_units": ("csr_spmv", "lower"),
    "tuner.conversion_units": ("csr_spmv", "lower"),
    "tuner.measurement_units": ("csr_spmv", "lower"),
    "tuner.codegen_units": ("csr_spmv", "lower"),
    "tuner.fallback_share": ("ratio", "lower"),
    "tuner.stage_share.cheap": ("ratio", "higher"),
    "tuner.stage_share.full": ("ratio", "lower"),
    "tuner.stage_share.measure": ("ratio", "lower"),
    "tuner.stage_share.floor": ("ratio", "lower"),
    "tuner.codegen_kept_share": ("ratio", "higher"),
    **{f"tuner.format_count.{f}": ("count", "higher") for f in FORMATS},
    "delta.engine_ms": ("ms", "lower"),
    "delta.policy_share.patch": ("ratio", "higher"),
    "delta.policy_share.refresh": ("ratio", "higher"),
    "delta.policy_share.retune": ("ratio", "lower"),
    "delta.redecision_share.delta": ("ratio", "higher"),
    "delta.redecision_share.cheap": ("ratio", "higher"),
    "delta.redecision_share.full": ("ratio", "lower"),
    "delta.redecision_share.none": ("ratio", "lower"),
    "fingerprint.ms": ("ms", "lower"),
    "features.extract_ms": ("ms", "lower"),
    "formats.convert_ms": ("ms", "lower"),
    "delta.splice_ms": ("ms", "lower"),
    "amg.cycles": ("count", "lower"),
    "amg.cycle_ms": ("ms", "lower"),
    "amg.spmv_share": ("ratio", "lower"),
    "amg.speedup_vs_csr": ("ratio", "higher"),
    "amg.setup_decide_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steady_windows(workload: Workload, phase: Phase) -> Tuple[List[Window], List[Window]]:
    """The phase cut into ``workload.WINDOWS`` windows of equal sample
    count, and the steady ones among them: windows in which the
    hypervisor stole more CPU than in the median window are set aside
    (:func:`stats.steady`)."""
    windows = cut_windows(
        phase.started,
        list(zip(phase.done, phase.latencies)),
        phase.op_done,
        workload.WINDOWS,
        phase.steal,
    )
    return windows, steady(windows)


def _latencies(windows: Sequence[Window]) -> List[float]:
    return [latency for window in windows for latency in window.latencies]


def end_to_end(
    workload: Workload, setup_times: Sequence[float], phase: Phase
) -> Dict[str, float]:
    _, kept = steady_windows(workload, phase)
    latencies = _latencies(kept)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops": sum(w.ops for w in kept) / sum(w.seconds for w in kept),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def _share(flags) -> float:
    return mean(1.0 if flag else 0.0 for flag in flags)


def per_layer(
    workload: Workload,
    plain: Phase,
    traced: Phase,
    recorder: Recorder,
) -> Dict[str, float]:
    out = {name: 0.0 for name in PER_LAYER}
    out["latency_p99_ms"] = 1e3 * percentile(
        _latencies(steady_windows(workload, plain)[1]), 99, workload.p99_min_beyond
    )
    if plain.updates:
        out["update_p50_ms"] = 1e3 * percentile(plain.updates, 50)
        out["update_p90_ms"] = 1e3 * percentile(plain.updates, 90)
    out["error_rate"] = Tally.merged([plain.tally, traced.tally]).error_rate

    requests = traced.requests
    if requests:
        out["serve.submit_ms"] = 1e3 * mean(r.submit for r in requests)
        out["serve.queue_ms"] = 1e3 * mean(r.queued for r in requests)
        out["serve.plan_ms"] = 1e3 * mean(r.plan for r in requests)
        out["serve.execute_ms"] = 1e3 * mean(r.execute for r in requests)
        # What the caller waited beyond every part the result accounts
        # for: worker wake-up, future hand-off and batch-mates' kernels.
        out["serve.handoff_ms"] = 1e3 * mean(
            r.latency - r.submit - r.queued - r.plan - r.execute for r in requests
        )
        out["serve.tier1_hit_share"] = _share(r.cache_hit for r in requests)
        out["serve.refresh_share"] = _share(r.refreshed for r in requests)
        out["serve.batched_share"] = _share(r.batch_size > 1 for r in requests)
        out["serve.batch_rhs_mean"] = mean(r.batch_size for r in requests)
        out["serve.degraded_share"] = _share(r.degraded for r in requests)
        singles = [r for r in requests if r.batch_size == 1]
        for fmt in FORMATS:
            out[f"kernels.spmv_ms.{fmt}"] = 1e3 * mean(
                r.execute for r in singles if r.format_name == fmt
            )
        for width in SPMM_WIDTHS:
            out[f"kernels.spmm_ms_per_rhs.b{width}"] = 1e3 * mean(
                r.execute for r in requests if r.batch_size == width
            )
        # A batched request reports its plan's kernel name but runs the
        # format's SpMM kernel, so the share is over single-RHS executes.
        single_time = sum(r.execute for r in singles)
        if single_time > 0:
            out["kernels.codegen_exec_share"] = sum(
                r.execute for r in singles if "/codegen[" in r.kernel_name
            ) / single_time

    proxy = getattr(workload, "proxy", None)
    calls = [c for c in proxy.calls if c.end >= traced.started] if proxy else []
    if calls:
        cycles = traced.cycles
        out["tuner.decide_ms"] = 1e3 * mean(c.seconds for c in calls)
        out["tuner.decide_count"] = len(calls) / cycles
        for unit in ("overhead", "extraction", "conversion", "measurement", "codegen"):
            out[f"tuner.{unit}_units"] = mean(getattr(c, f"{unit}_units") for c in calls)
        out["tuner.fallback_share"] = _share(c.used_fallback for c in calls)
        for stage in STAGES:
            out[f"tuner.stage_share.{stage}"] = _share(c.stage == stage for c in calls)
        out["tuner.codegen_kept_share"] = _share(c.compiled for c in calls)
        for fmt in FORMATS:
            out[f"tuner.format_count.{fmt}"] = (
                sum(1 for c in calls if c.format_name == fmt) / cycles
            )

    deltas = traced.deltas
    if deltas:
        out["delta.engine_ms"] = 1e3 * mean(d.engine_seconds for d in deltas)
        for policy in POLICIES:
            out[f"delta.policy_share.{policy}"] = _share(d.policy == policy for d in deltas)
        for stage in REDECISIONS:
            out[f"delta.redecision_share.{stage}"] = _share(
                (d.redecision_stage or "none") == stage for d in deltas
            )

    out.update(workload.layers(plain, traced, recorder))
    out["trace.overhead"] = percentile(
        _latencies(steady_windows(workload, traced)[1]), 50
    ) / percentile(_latencies(steady_windows(workload, plain)[1]), 50)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return out


def describe(values: Dict[str, float], table: Dict[str, tuple]) -> List[str]:
    """One human-readable line per metric: name, value, unit."""
    return [f"  {name:34s} {values[name]:14.6g} {table[name][0]}" for name in table]
