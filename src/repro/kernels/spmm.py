"""Multi-RHS SpMM kernels: ``Y = A @ X`` for a dense RHS block.

At high fan-in many queued requests share one operand matrix; executing
them as k sequential SpMVs re-streams the sparse operand through memory
k times.  These kernels make **one** pass: the RHS vectors are stacked
column-wise into a dense ``(n_cols, k)`` block and every gathered operand
element multiplies a k-wide row of X.

One pass saves operand traffic, but it does not make SpMM faster than k
calls of a plan's *serving* kernel, which is often compiled for the
plan's structure while these kernels are generic and pay for the
stacking and k-wide gathers.  On a Zipf-hot pool of 8k-60k nnz
matrices, DIA SpMM lost to k compiled DIA SpMVs on every plan at k <= 4
and on most plans at k = 8 and 32, and CSR SpMM won only at k = 32.
The serving engine therefore measures the crossover per plan and width
(:class:`repro.tuner.plan.SpmmVerdicts`) and stacks a group only
where SpMM won.

The kernels are *blocked* where it matters: a naive CSR SpMM would
materialise an ``(nnz, k)`` product buffer — DRAM-bound for exactly the
matrices worth batching.  The CSR kernel instead groups rows by exact
degree (a jagged-diagonal-style reordering computed per call, no format
conversion) and reduces each group with one ``einsum`` over a slot-major
``(d, rows, k)`` gather, blocked to stay cache resident; rows heavier
than :data:`HEAVY_ROW_DEGREE` take a segment-sum path so skewed
matrices never degrade the grouped loop.

Registration is a plain per-format table, separate from the SpMV strategy
scoreboard: SpMM is a serving-layer fast path keyed only on format, not a
tuner search dimension.  :func:`spmm_fallback` runs any other format
column by column through an SpMV callable; the engine never stacks such
plans, since that fallback cannot beat the serving kernel it repeats.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.kernels.dia_kernels import _diag_bounds
from repro.types import FormatName

#: Target element count for one row block's gathered product buffer
#: (``block_nnz * k`` values).  512k float64 elements is ~4 MiB — small
#: enough to stay cache resident, large enough to amortise the per-block
#: Python overhead.
BLOCK_ELEMS = 512_000

#: The CSR kernel's block is smaller: its gathers are fresh temporaries
#: on every call, and 4 MiB ones page-fault on first touch.  On a
#: 2,000-row banded matrix at k = 64, a fresh process's second call took
#: 4.4-4.8 ms with 4 MiB blocks and about 2.0 ms with 64k-element
#: (500 KiB) blocks; warm calls take 1.2-2.1 ms either way.
CSR_BLOCK_ELEMS = 64_000

#: Rows with more stored elements than this skip the degree-grouped
#: einsum (which would spend one group per distinct degree) and reduce
#: through the blocked segment-sum path instead.  Also bounds the group
#: loop at 64 iterations regardless of the degree distribution.
HEAVY_ROW_DEGREE = 64

SpmmKernel = Callable[[SparseMatrix, np.ndarray], np.ndarray]

_SPMM_REGISTRY: Dict[FormatName, SpmmKernel] = {}


def register_spmm(name: FormatName):
    """Decorator registering ``fn`` as the native SpMM kernel for ``name``."""

    def wrap(fn: SpmmKernel) -> SpmmKernel:
        _SPMM_REGISTRY[name] = fn
        return fn

    return wrap


def spmm_kernel_for(name: FormatName) -> Optional[SpmmKernel]:
    """The native SpMM kernel registered for ``name``, or ``None``."""
    return _SPMM_REGISTRY.get(name)


def supports_spmm(name: FormatName) -> bool:
    """True when ``name`` has a native multi-RHS kernel."""
    return name in _SPMM_REGISTRY


def spmm_formats() -> tuple:
    """Formats with a native SpMM kernel (registration order)."""
    return tuple(_SPMM_REGISTRY)


def spmm_fallback(
    matrix: SparseMatrix,
    X: np.ndarray,
    spmv: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Column-by-column SpMM through an SpMV callable.

    The transparent degradation path for formats without a native kernel
    (COO): correctness is unconditional, the memory-traffic
    amortisation simply doesn't apply.  ``spmv`` defaults to the matrix's
    reference kernel; plans pass their tuned kernel instead.
    """
    X = matrix.check_operand_block(X)
    run = spmv if spmv is not None else matrix.spmv
    Y = np.empty((matrix.n_rows, X.shape[1]), dtype=matrix.dtype)
    for j in range(X.shape[1]):
        Y[:, j] = run(X[:, j])
    return Y


def _segment_sums_2d(products: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Row-block sums of an ``(nnz_slice, k)`` product buffer.

    The 2-D analogue of ``csr_kernels._segment_sums``: one cumulative sum
    down the nnz axis, then segment differences at the row pointer.  Each
    column accumulates in the same element order as the 1-D kernel, so
    under exact (dyadic) arithmetic the result is bitwise identical to k
    sequential SpMVs.
    """
    csum = np.concatenate(
        [
            np.zeros((1, products.shape[1]), dtype=products.dtype),
            np.cumsum(products, axis=0),
        ]
    )
    return csum[ptr[1:]] - csum[ptr[:-1]]


@register_spmm(FormatName.CSR)
def csr_spmm(matrix: CSRMatrix, X: np.ndarray) -> np.ndarray:
    """Degree-grouped gather + einsum reduction.

    Rows are bucketed by exact degree; each bucket is a rectangular
    slab gathered slot-major, ``(d, rows)``, and reduced with one
    ``einsum("dr,drk->rk")`` — the ELL kernel's shape without paying for
    an ELL conversion or any fill.  No ``(nnz, k)`` product buffer ever
    exists: the reduction happens inside the einsum, and row blocks cap
    the gathered X slab at ~``CSR_BLOCK_ELEMS`` values.  Rows heavier
    than ``HEAVY_ROW_DEGREE`` fall through to a blocked segment-sum
    sweep so one hub row cannot force thousands of single-degree groups.

    One pass over ``data``/``indices`` serves all k columns; the gathered
    X rows are k-wide, so the operand-traffic amortisation is exactly the
    batch width.
    """
    X = matrix.check_operand_block(X)
    ptr, indices, data = matrix.ptr, matrix.indices, matrix.data
    deg = np.diff(ptr)
    k = X.shape[1]
    Y = np.zeros((matrix.n_rows, k), dtype=matrix.dtype)
    order = np.argsort(deg, kind="stable")
    deg_sorted = deg[order]
    heavy_start = int(
        np.searchsorted(deg_sorted, HEAVY_ROW_DEGREE + 1, side="left")
    )
    a = int(np.searchsorted(deg_sorted, 1, side="left"))
    while a < heavy_start:
        d = int(deg_sorted[a])
        b = int(np.searchsorted(deg_sorted, d + 1, side="left"))
        rows = order[a:b]
        starts = ptr[rows]
        slots = np.arange(d)[:, None]
        block = max(1, CSR_BLOCK_ELEMS // (d * k))
        for blk_lo in range(0, rows.size, block):
            blk_hi = min(rows.size, blk_lo + block)
            idx = slots + starts[None, blk_lo:blk_hi]
            Y[rows[blk_lo:blk_hi]] = np.einsum(
                "dr,drk->rk", data[idx], X[indices[idx]]
            )
        a = b
    if heavy_start < deg.size:
        heavy = order[heavy_start:]
        h_deg = deg[heavy]
        h_ptr = np.concatenate([[0], np.cumsum(h_deg)])
        total = int(h_ptr[-1])
        # Ragged arange: position p of heavy row r maps to nnz slot
        # ptr[row] + p, flattened across all heavy rows at once.
        flat = (
            np.repeat(ptr[heavy], h_deg)
            + np.arange(total)
            - np.repeat(h_ptr[:-1], h_deg)
        )
        n_blocks = max(1, -(-(total * k) // CSR_BLOCK_ELEMS))
        bounds = np.searchsorted(
            h_ptr, np.linspace(0, total, n_blocks + 1)
        )
        bounds[0], bounds[-1] = 0, heavy.size
        for bi in range(len(bounds) - 1):
            ra, rb = int(bounds[bi]), int(bounds[bi + 1])
            if ra >= rb:
                continue
            sel = flat[int(h_ptr[ra]) : int(h_ptr[rb])]
            products = data[sel][:, None] * X[indices[sel], :]
            Y[heavy[ra:rb]] = _segment_sums_2d(
                products, h_ptr[ra : rb + 1] - h_ptr[ra]
            )
    return Y


@register_spmm(FormatName.ELL)
def ell_spmm(matrix: ELLMatrix, X: np.ndarray) -> np.ndarray:
    """Column-blocked packed-slot reduction.

    The SpMV kernel's ``einsum("si,si->i")`` grows a k axis; row blocks
    are sized so the gathered ``(slots, block, k)`` X slice stays cache
    resident.
    """
    X = matrix.check_operand_block(X)
    k = X.shape[1]
    Y = np.zeros((matrix.n_rows, k), dtype=matrix.dtype)
    if matrix.max_row_degree == 0:
        return Y
    block = max(1, BLOCK_ELEMS // (matrix.max_row_degree * k))
    for block_start in range(0, matrix.n_rows, block):
        block_end = min(block_start + block, matrix.n_rows)
        data = matrix.data[:, block_start:block_end]
        idx = matrix.indices[:, block_start:block_end]
        Y[block_start:block_end] = np.einsum("si,sik->ik", data, X[idx])
    return Y


@register_spmm(FormatName.DIA)
def dia_spmm(matrix: DIAMatrix, X: np.ndarray) -> np.ndarray:
    """Row-blocked per-diagonal sweep with a broadcast k axis.

    Pure strided slices — no gathers at all; every diagonal element
    multiplies a k-wide X row slice, and Y is written once per row block.
    """
    X = matrix.check_operand_block(X)
    k = X.shape[1]
    Y = np.zeros((matrix.n_rows, k), dtype=matrix.dtype)
    if matrix.num_diags == 0 or matrix.n_rows == 0:
        return Y
    block = max(1, BLOCK_ELEMS // k)
    for block_start in range(0, matrix.n_rows, block):
        block_end = min(block_start + block, matrix.n_rows)
        for i in range(matrix.num_diags):
            off = int(matrix.offsets[i])
            i_start, j_start, n = _diag_bounds(matrix, off)
            lo = max(i_start, block_start)
            hi = min(i_start + n, block_end)
            if hi <= lo:
                continue
            shift = j_start - i_start
            Y[lo:hi] += (
                matrix.data[i, lo:hi][:, None]
                * X[lo + shift : hi + shift, :]
            )
    return Y
