"""Analytic SpMV cost model — the simulated testbed.

This module substitutes for the paper's hardware measurements (see
DESIGN.md).  Given a matrix's Table 2 feature vector, an architecture, a
storage format, a precision and a kernel strategy set, it produces a
deterministic execution-time estimate built from the standard roofline
ingredients:

* **memory time** — bytes moved (matrix arrays *including padding*, the
  X gather/stream traffic, and Y writes) over the effective bandwidth;
  working sets smaller than the LLC run at cache bandwidth,
* **compute time** — multiply-adds (again including padding work for
  DIA/ELL) over peak throughput, derated by a per-format regularity factor
  that captures how SIMD-friendly the access pattern is,
* **loop overhead** — per-row (CSR), per-diagonal (DIA) and per-packed-slot
  (ELL) bookkeeping; this is what makes COO win on very short rows,
* **imbalance** — row-partitioned parallel kernels slow down with the
  row-degree coefficient of variation; COO's element partition does not.

Every qualitative rule of the paper's Section 4 falls out of these terms:
small ``Ndiags``/``max_RD`` and large ``ER_*``/``NTdiags_ratio`` favour
DIA/ELL; power-law skew (large ``var_RD``) pushes row-partitioned formats
toward COO; everything else defaults to CSR.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.features.parameters import FeatureVector
from repro.kernels.strategies import Strategy, StrategySet
from repro.machine.arch import Architecture
from repro.types import FormatName, Precision

#: Index bytes assumed by the model (the paper's kernels use 32-bit ints).
MODEL_INDEX_BYTES = 4

#: CSR-SpMV units charged for one codegen emit+compile.  ``compile()`` of
#: a few-hundred-byte source is microseconds; the charge mostly covers the
#: emitter's structural scans (degree histograms, segment boundaries).
CODEGEN_COMPILE_UNITS = 2.0


def codegen_overhead_units(probe_repeats: int) -> float:
    """Budget charge for one beat-or-keep kernel specialization.

    The audit runs one verification call plus ``probe_repeats`` timed
    calls for each of the two candidate kernels; every call is about one
    SpMV on the decision's own matrix, i.e. about one CSR-SpMV unit.
    The tuner's budgeted cascade checks this charge against
    ``tune_budget_units`` before invoking the backend, the same way it
    gates conversions and fallback measurements.
    """
    return CODEGEN_COMPILE_UNITS + 2.0 * (1 + probe_repeats)

#: Fraction of X-gather traffic that misses cache for each format when the
#: X vector does not fit in the LLC.  CSR's row-major gathers are the most
#: random; ELL's column-major sweep revisits the same X window per slot.
GATHER_MISS = {
    FormatName.CSR: 0.55,
    FormatName.COO: 0.55,
    FormatName.ELL: 0.30,
    FormatName.DIA: 0.10,
}

#: SIMD efficiency of each format's inner loop (fraction of peak reachable
#: by a fully vectorized kernel).
REGULARITY = {
    FormatName.DIA: 0.85,
    FormatName.ELL: 0.76,
    FormatName.CSR: 0.45,
    FormatName.COO: 0.38,
}

#: Loop bookkeeping in cycles.
ROW_LOOP_CYCLES = 7.5  # CSR: ptr loads, loop setup, branch, remainder, store
DIAG_LOOP_CYCLES = 40.0  # DIA: bounds computation + stream setup per diagonal
SLOT_LOOP_CYCLES = 40.0  # ELL: per packed column sweep
SCATTER_CYCLES = 1.1  # COO: read-modify-write on Y per element

#: Amplitude of the deterministic per-matrix performance variation (see
#: ``_structure_jitter``).  Real measurements vary with structure details the
#: 11 features cannot see (exact band placement, column locality, NUMA page
#: luck); without this term the cost model would be an *exact* function of
#: the feature vector and the learner would be unrealistically perfect.
#: The amplitude is format-specific: CSR's row-loop performance is by far
#: the most sensitive to invisible structure (column locality, branch
#: behaviour on ragged rows) — the paper's "relatively intricate features of
#: CSR as the most general format" — while COO's element stream and the
#: dense DIA/ELL sweeps are structurally determined.  The asymmetry is what
#: keeps the learned CSR rules impure (so the runtime falls back to
#: execute-and-measure on them, Table 3) while DIA/ELL/COO rules stay
#: confident.  Magnitudes reproduce the paper's accuracy band (80-92%).
JITTER_AMPLITUDE = {
    FormatName.CSR: 0.18,
    FormatName.COO: 0.05,
    FormatName.DIA: 0.07,
    FormatName.ELL: 0.07,
}

#: Cap on the slowdown attributed to row-partition load imbalance.
IMBALANCE_CAP = 6.0
#: Mild slowdown per unit of row-degree coefficient of variation: a few
#: dense rows among thousands barely skew a 12-way static partition.
IMBALANCE_CV_WEIGHT = 0.06
IMBALANCE_CV_CAP = 8.0
#: Extra slowdown when the *whole* degree distribution is heavy-tailed
#: (power-law R in [1, 4]): hub rows land in every partition, so a static
#: row split cannot balance — the effect Yang et al. identify as the reason
#: COO wins on graph matrices.
IMBALANCE_POWER_LAW_PENALTY = 2.5


@dataclass(frozen=True)
class CostBreakdown:
    """The components of one estimate (useful for ablation benches)."""

    memory_s: float
    compute_s: float
    overhead_s: float
    imbalance: float

    @property
    def total_s(self) -> float:
        return (max(self.memory_s, self.compute_s) + self.overhead_s) * (
            self.imbalance
        )


def estimate_spmv_time(
    arch: Architecture,
    fmt: FormatName,
    features: FeatureVector,
    precision: Precision = Precision.DOUBLE,
    strategies: StrategySet = frozenset(),
) -> float:
    """Estimated seconds for one SpMV.

    Deterministic: repeated calls with the same arguments return the same
    time, the way repeated measurements of the same kernel on the same
    matrix agree (so the execute-and-measure fallback is stable).
    """
    breakdown = cost_breakdown(arch, fmt, features, precision, strategies)
    return breakdown.total_s * _structure_jitter(arch, fmt, features, precision)


def estimate_gflops(
    arch: Architecture,
    fmt: FormatName,
    features: FeatureVector,
    precision: Precision = Precision.DOUBLE,
    strategies: StrategySet = frozenset(),
) -> float:
    """Useful GFLOPS (2 x NNZ over estimated time) — the paper's metric."""
    seconds = estimate_spmv_time(arch, fmt, features, precision, strategies)
    if seconds <= 0.0:
        return 0.0
    return 2.0 * features.nnz / seconds / 1e9


def cost_breakdown(
    arch: Architecture,
    fmt: FormatName,
    features: FeatureVector,
    precision: Precision,
    strategies: StrategySet,
) -> CostBreakdown:
    """Full cost decomposition for one (matrix, format, kernel) triple."""
    f = features
    b = precision.bytes_per_value
    vectorized = Strategy.VECTORIZE in strategies
    parallel = Strategy.PARALLEL in strategies
    blocked = Strategy.ROW_BLOCK in strategies
    unrolled = Strategy.UNROLL in strategies
    threads = arch.cores if parallel else 1

    padded = _padded_size(fmt, f)
    matrix_bytes, x_bytes, y_bytes = _traffic(fmt, f, b, padded, blocked, arch)
    total_bytes = matrix_bytes + x_bytes + y_bytes
    cache_resident = (matrix_bytes + f.n * b) <= arch.llc_bytes()
    bandwidth = arch.bandwidth_bytes_per_s(threads, cache_resident)
    memory_s = total_bytes / bandwidth

    flop_work = 2.0 * padded
    regularity = REGULARITY[fmt] * (1.0 if vectorized else 0.55)
    lanes = arch.simd_lanes(precision) if vectorized else 1
    peak_flops = arch.frequency_ghz * 1e9 * 2.0 * lanes * threads
    compute_s = flop_work / (peak_flops * regularity)

    overhead_s = _loop_overhead(fmt, f, unrolled, blocked) / (
        arch.frequency_ghz * 1e9 * threads
    )

    imbalance = _imbalance(fmt, f, parallel)
    return CostBreakdown(memory_s, compute_s, overhead_s, imbalance)


def _padded_size(fmt: FormatName, f: FeatureVector) -> float:
    """Stored slots the kernel actually processes (padding included)."""
    if fmt is FormatName.DIA:
        return max(float(f.ndiags * f.m), float(f.nnz))
    if fmt is FormatName.ELL:
        return max(float(f.max_rd * f.m), float(f.nnz))
    return float(f.nnz)


def _traffic(
    fmt: FormatName,
    f: FeatureVector,
    b: int,
    padded: float,
    blocked: bool,
    arch: Architecture,
) -> tuple:
    """(matrix_bytes, x_bytes, y_bytes) per SpMV."""
    idx = MODEL_INDEX_BYTES
    x_fits = f.n * b <= arch.llc_bytes() // 2
    miss = GATHER_MISS[fmt] * (0.55 if blocked else 1.0)

    if fmt is FormatName.CSR:
        matrix_bytes = f.nnz * (b + idx) + (f.m + 1) * idx
        x_bytes = f.n * b if x_fits else f.nnz * b * miss
        y_bytes = f.m * b
    elif fmt is FormatName.COO:
        matrix_bytes = f.nnz * (b + 2 * idx)
        x_bytes = f.n * b if x_fits else f.nnz * b * miss
        # Scatter-add reads and writes Y per element; most combine in cache
        # because the row-sorted stream hits each Y line repeatedly.
        y_bytes = f.nnz * b * 0.25
    elif fmt is FormatName.DIA:
        matrix_bytes = padded * b
        x_bytes = f.n * b if x_fits else padded * b * miss
        # Without row blocking Y streams once per (group of) diagonal(s).
        y_writes = 1.0 if blocked else min(float(max(f.ndiags, 1)), 4.0)
        y_bytes = f.m * b * y_writes
    else:  # ELL
        matrix_bytes = padded * (b + idx)
        x_bytes = f.n * b if x_fits else padded * b * miss
        y_writes = 1.0 if blocked else min(float(max(f.max_rd, 1)), 4.0)
        y_bytes = f.m * b * y_writes
    return float(matrix_bytes), float(x_bytes), float(y_bytes)


def _loop_overhead(
    fmt: FormatName, f: FeatureVector, unrolled: bool, blocked: bool
) -> float:
    """Bookkeeping cycles outside the multiply-add stream."""
    if fmt is FormatName.CSR:
        return f.m * ROW_LOOP_CYCLES
    if fmt is FormatName.COO:
        return f.nnz * SCATTER_CYCLES
    if fmt is FormatName.DIA:
        per_diag = DIAG_LOOP_CYCLES * (0.5 if unrolled else 1.0)
        return f.ndiags * per_diag
    return f.max_rd * SLOT_LOOP_CYCLES  # ELL


def _imbalance(fmt: FormatName, f: FeatureVector, parallel: bool) -> float:
    """Load-imbalance slowdown for row-partitioned parallel kernels."""
    if not parallel:
        return 1.0
    if fmt is FormatName.COO:
        return 1.0  # element partition: perfectly balanced
    if f.aver_rd <= 0:
        return 1.0
    cv = (f.var_rd ** 0.5) / f.aver_rd
    slowdown = 1.0 + IMBALANCE_CV_WEIGHT * min(cv, IMBALANCE_CV_CAP)
    if math.isfinite(f.r) and 1.0 <= f.r <= 4.0:
        # The penalty grows with the actual skew: a strong power law (hub
        # rows dominating, cv >= 2) makes a static row partition hopeless,
        # while a mild one (road networks, cv < 1) costs proportionally.
        slowdown += IMBALANCE_POWER_LAW_PENALTY * min(1.0, cv / 2.0)
    return min(IMBALANCE_CAP, slowdown)


def _structure_jitter(
    arch: Architecture,
    fmt: FormatName,
    f: FeatureVector,
    precision: Precision,
) -> float:
    """Deterministic per-(machine, format, matrix) factor in
    ``1 ± JITTER_AMPLITUDE``.

    Derived from a stable CRC of the identifying quantities — NOT Python's
    randomized ``hash`` — so training labels, bench tables and the
    execute-and-measure fallback all see the same "measurement".
    Kernel strategies are deliberately excluded: strategy *deltas* must stay
    exact so the scoreboard search (and its discard-below-0.01 rule) behaves
    as designed.
    """
    key = (
        f"{arch.name}|{fmt.value}|{precision.value}|{f.m}|{f.n}|{f.nnz}|"
        f"{f.ndiags}|{f.max_rd}|{f.var_rd:.6g}|{f.ntdiags_ratio:.6g}|{f.r:.6g}"
    )
    fraction = zlib.crc32(key.encode()) / 0xFFFFFFFF
    return 1.0 + JITTER_AMPLITUDE[fmt] * (2.0 * fraction - 1.0)
