"""Roofline analysis of SpMV kernels on the simulated machines.

A compact analysis layer over the cost model: for any (matrix features,
format, precision) triple it reports the arithmetic intensity, the
machine's ridge point, whether the kernel is memory- or compute-bound, and
the attainable-GFLOPS ceiling — the standard way to sanity-check why a
format wins or loses on a given matrix, and the lens the paper's Section 4
analysis implicitly uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.features.parameters import FeatureVector
from repro.kernels.strategies import Strategy, StrategySet, strategy_set
from repro.machine.arch import Architecture
from repro.machine.costmodel import REGULARITY, _padded_size, _traffic
from repro.types import FormatName, Precision

DEFAULT_STRATEGIES = strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL)


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position on the roofline."""

    format_name: FormatName
    #: Useful flops per byte of traffic (padding work excluded from flops,
    #: included in bytes — pessimistic, like measured GFLOPS).
    arithmetic_intensity: float
    #: flops/byte above which the machine turns compute-bound.
    ridge_point: float
    #: GFLOPS ceiling at this intensity.
    attainable_gflops: float
    memory_bound: bool

    def describe(self) -> str:
        regime = "memory-bound" if self.memory_bound else "compute-bound"
        return (
            f"{self.format_name.value}: AI={self.arithmetic_intensity:.3f} "
            f"flops/B (ridge {self.ridge_point:.3f}), "
            f"ceiling {self.attainable_gflops:.1f} GFLOPS, {regime}"
        )


def roofline_point(
    arch: Architecture,
    fmt: FormatName,
    features: FeatureVector,
    precision: Precision = Precision.DOUBLE,
    strategies: StrategySet = DEFAULT_STRATEGIES,
) -> RooflinePoint:
    """Place one (matrix, format) SpMV on ``arch``'s roofline."""
    blocked = Strategy.ROW_BLOCK in strategies
    threaded = Strategy.PARALLEL in strategies
    threads = arch.cores if threaded else 1

    padded = _padded_size(fmt, features)
    matrix_bytes, x_bytes, y_bytes = _traffic(
        fmt, features, precision.bytes_per_value, padded, blocked, arch
    )
    total_bytes = matrix_bytes + x_bytes + y_bytes
    useful_flops = 2.0 * features.nnz
    intensity = useful_flops / total_bytes if total_bytes else 0.0

    cache_resident = (
        matrix_bytes + features.n * precision.bytes_per_value
        <= arch.llc_bytes()
    )
    bandwidth = arch.bandwidth_bytes_per_s(threads, cache_resident)
    peak = (
        arch.peak_gflops(precision, threads) * REGULARITY[fmt]
    )
    ridge = peak * 1e9 / bandwidth
    attainable = min(peak, intensity * bandwidth / 1e9)
    return RooflinePoint(
        format_name=fmt,
        arithmetic_intensity=intensity,
        ridge_point=ridge,
        attainable_gflops=attainable,
        memory_bound=intensity < ridge,
    )


def roofline_report(
    arch: Architecture,
    features: FeatureVector,
    precision: Precision = Precision.DOUBLE,
    formats=(FormatName.DIA, FormatName.ELL, FormatName.CSR, FormatName.COO),
) -> str:
    """Multi-format roofline comparison for one matrix."""
    lines = [
        f"roofline on {arch.name} "
        f"({precision.value} precision, {arch.cores} threads):"
    ]
    for fmt in formats:
        point = roofline_point(arch, fmt, features, precision)
        lines.append("  " + point.describe())
    return "\n".join(lines)
