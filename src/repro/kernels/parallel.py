"""Chunked thread-parallel SpMV execution.

The PARALLEL-strategy kernels run in one pass on the host — the simulated
machine model supplies the thread-scaling factor.  This module is the
*real* thing: rows are split into nnz-balanced chunks (a prefix-sum
partition over the CSR row pointer) and each chunk's vectorized segment
reduction runs on a shared ``ThreadPoolExecutor``.
NumPy's ufunc inner loops release the GIL on large non-object buffers, so
the chunks genuinely overlap on multi-core hosts.

Registered under ``Strategy.THREAD`` so the scoreboard search and the cost
model's thread-scaling term finally correspond to a kernel that actually
runs concurrently (``WallClockBackend`` measures the overlap for real;
``SimulatedBackend`` scales THREAD like PARALLEL).

The executor is a process-wide singleton: SpMV requests arrive far more
often than pools should be created, and a shared pool keeps the serving
engine's worker threads from multiplying thread counts.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.formats.csr import CSRMatrix
from repro.kernels.base import register_kernel
from repro.kernels.csr_kernels import _segment_sums, csr_vectorized
from repro.kernels.strategies import Strategy, strategy_set
from repro.types import FormatName

#: Upper bound on the shared pool size; beyond this SpMV is bandwidth-bound
#: and more threads only add scheduling noise.
MAX_WORKERS = 16

#: Below this many non-zeros the chunk fan-out costs more than it saves and
#: the THREAD kernel degrades to the plain vectorized one.
MIN_PARALLEL_NNZ = 100_000

#: SpMM fan-out threshold on ``nnz * batch_width``: the per-element work
#: grows with the batch, so the parallel cliff sits lower than SpMV's.
MIN_PARALLEL_SPMM_ELEMS = 400_000

_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()


def default_workers() -> int:
    """Worker count for this host: one per core, capped at MAX_WORKERS."""
    return max(1, min(os.cpu_count() or 1, MAX_WORKERS))


def shared_executor() -> ThreadPoolExecutor:
    """The process-wide SpMV thread pool (created lazily, never shut down)."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=default_workers(),
                thread_name_prefix="repro-spmv",
            )
        return _executor


def nnz_balanced_chunks(ptr: np.ndarray, n_chunks: int) -> np.ndarray:
    """Row boundaries splitting ``ptr``'s rows into nnz-balanced chunks.

    Returns an increasing array ``bounds`` of length ``n_chunks + 1`` with
    ``bounds[0] == 0`` and ``bounds[-1] == n_rows``; chunk ``c`` covers rows
    ``bounds[c]:bounds[c + 1]`` and holds as close to ``nnz / n_chunks``
    non-zeros as row granularity allows.  Because ``ptr`` is itself the
    prefix sum of row degrees, the split is one ``searchsorted`` over the
    pointer — no per-row scan.
    """
    ptr = np.asarray(ptr)
    n_rows = int(ptr.shape[0]) - 1
    n_chunks = max(1, int(n_chunks))
    nnz = int(ptr[-1]) if n_rows >= 0 else 0
    if n_rows <= 0:
        return np.zeros(n_chunks + 1, dtype=np.int64)
    if nnz == 0:
        # Degenerate: balance rows instead of (absent) non-zeros.
        return np.linspace(0, n_rows, n_chunks + 1).astype(np.int64)
    targets = (np.arange(1, n_chunks, dtype=np.int64) * nnz) // n_chunks
    interior = np.searchsorted(ptr, targets, side="left").astype(np.int64)
    bounds = np.concatenate(([0], interior, [n_rows]))
    # Row granularity can make boundaries collide (one huge row); keep the
    # sequence monotone so every chunk is a valid (possibly empty) range.
    np.maximum.accumulate(bounds, out=bounds)
    bounds[-1] = n_rows
    return bounds


def chunk_ranges(ptr: np.ndarray, n_chunks: int) -> List[Tuple[int, int]]:
    """Non-empty ``(row_lo, row_hi)`` pairs of an nnz-balanced partition."""
    bounds = nnz_balanced_chunks(ptr, n_chunks)
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


def csr_spmv_thread(
    matrix: CSRMatrix,
    x: np.ndarray,
    workers: Optional[int] = None,
) -> np.ndarray:
    """CSR SpMV over nnz-balanced row chunks on the shared thread pool.

    Each chunk runs the same gather + segment-reduction as
    :func:`~repro.kernels.csr_kernels.csr_vectorized` and writes its own
    disjoint slice of ``y``, so no synchronisation is needed beyond the
    final join.
    """
    x = matrix.check_operand(x)
    n_workers = workers if workers is not None else default_workers()
    if n_workers <= 1 or matrix.nnz < MIN_PARALLEL_NNZ:
        return csr_vectorized(matrix, x)
    ranges = chunk_ranges(matrix.ptr, n_workers)
    if len(ranges) <= 1:
        return csr_vectorized(matrix, x)

    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    ptr, indices, data = matrix.ptr, matrix.indices, matrix.data

    # Chunk spans carry an *explicit* parent: they run on pool threads,
    # where the submitting thread's current span is invisible.  In a
    # Chrome trace they land on their own tid lanes, making the actual
    # chunk overlap visible.
    tracer = obs.get_tracer()
    fan_out = (
        tracer.begin(
            "kernel.thread_fanout", chunks=len(ranges), workers=n_workers
        )
        if tracer is not None
        else None
    )

    def run_chunk(row_lo: int, row_hi: int) -> None:
        lo, hi = int(ptr[row_lo]), int(ptr[row_hi])
        if hi == lo:
            return
        chunk_span = (
            tracer.begin(
                "kernel.chunk",
                parent=fan_out,
                rows=row_hi - row_lo,
                nnz=hi - lo,
            )
            if tracer is not None
            else None
        )
        try:
            products = data[lo:hi] * x[indices[lo:hi]]
            y[row_lo:row_hi] = _segment_sums(
                products, ptr[row_lo : row_hi + 1] - lo
            )
        finally:
            if chunk_span is not None:
                tracer.end(chunk_span)

    pool = shared_executor()
    futures = [pool.submit(run_chunk, lo, hi) for lo, hi in ranges]
    wait(futures)
    if fan_out is not None and tracer is not None:
        tracer.end(fan_out)
    for future in futures:
        future.result()  # re-raise the first chunk failure, if any
    return y


@register_kernel(
    FormatName.CSR, strategy_set(Strategy.VECTORIZE, Strategy.THREAD)
)
def csr_vectorized_thread(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Concurrent nnz-balanced chunked segment reduction (Strategy.THREAD)."""
    return csr_spmv_thread(matrix, x)


def csr_spmm_thread(
    matrix: CSRMatrix,
    X: np.ndarray,
    workers: Optional[int] = None,
) -> np.ndarray:
    """CSR SpMM over nnz-balanced row chunks on the shared thread pool.

    The multi-RHS analogue of :func:`csr_spmv_thread`: each chunk runs the
    row-blocked SpMM of :func:`repro.kernels.spmm.csr_spmm` over its own
    disjoint Y slice.  Chunk spans carry the same explicit
    ``kernel.thread_fanout`` parent so the overlap is visible in traces.
    """
    # Local import: spmm imports this module's chunking helpers at top
    # level, so the reverse edge must stay function-local.
    from repro.kernels.spmm import _csr_spmm_rows, csr_spmm

    X = matrix.check_operand_block(X)
    n_workers = workers if workers is not None else default_workers()
    if (
        n_workers <= 1
        or matrix.nnz * X.shape[1] < MIN_PARALLEL_SPMM_ELEMS
    ):
        return csr_spmm(matrix, X)
    ranges = chunk_ranges(matrix.ptr, n_workers)
    if len(ranges) <= 1:
        return csr_spmm(matrix, X)

    Y = np.zeros((matrix.n_rows, X.shape[1]), dtype=matrix.dtype)
    ptr = matrix.ptr

    tracer = obs.get_tracer()
    fan_out = (
        tracer.begin(
            "kernel.thread_fanout",
            chunks=len(ranges),
            workers=n_workers,
            batch=X.shape[1],
        )
        if tracer is not None
        else None
    )

    def run_chunk(row_lo: int, row_hi: int) -> None:
        lo, hi = int(ptr[row_lo]), int(ptr[row_hi])
        if hi == lo:
            return
        chunk_span = (
            tracer.begin(
                "kernel.chunk",
                parent=fan_out,
                rows=row_hi - row_lo,
                nnz=hi - lo,
            )
            if tracer is not None
            else None
        )
        try:
            _csr_spmm_rows(matrix, X, Y, row_lo, row_hi)
        finally:
            if chunk_span is not None:
                tracer.end(chunk_span)

    pool = shared_executor()
    futures = [pool.submit(run_chunk, lo, hi) for lo, hi in ranges]
    wait(futures)
    if fan_out is not None and tracer is not None:
        tracer.end(fan_out)
    for future in futures:
        future.result()  # re-raise the first chunk failure, if any
    return Y
