"""DIA SpMV kernel implementations."""

from __future__ import annotations

import numpy as np

from repro.formats.dia import DIAMatrix
from repro.kernels.base import register_kernel
from repro.kernels.strategies import Strategy, strategy_set
from repro.types import FormatName

ROW_BLOCK_SIZE = 8192


def _diag_bounds(matrix: DIAMatrix, k: int) -> tuple:
    """(i_start, j_start, n) for diagonal offset ``k`` (Figure 2c)."""
    i_start = max(0, -k)
    j_start = max(0, k)
    n = min(matrix.n_rows - i_start, matrix.n_cols - j_start)
    return i_start, j_start, n


@register_kernel(FormatName.DIA, strategy_set())
def dia_basic(matrix: DIAMatrix, x: np.ndarray) -> np.ndarray:
    """Reference diagonal loop with a scalar inner loop (Figure 2c)."""
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    for i in range(matrix.num_diags):
        k = int(matrix.offsets[i])
        i_start, j_start, n = _diag_bounds(matrix, k)
        for offset in range(max(n, 0)):
            y[i_start + offset] += (
                matrix.data[i, i_start + offset] * x[j_start + offset]
            )
    return y


@register_kernel(FormatName.DIA, strategy_set(Strategy.VECTORIZE))
def dia_vectorized(matrix: DIAMatrix, x: np.ndarray) -> np.ndarray:
    """Loop-free diagonal gather via offset broadcasting.

    ``offsets[:, None] + arange(n_rows)`` gives every stored slot's column
    in one broadcast; a single masked gather-multiply-reduce over the
    ``(num_diags, n_rows)`` plane then produces Y with no per-diagonal
    Python iteration — the flat-index analogue of a fully SIMDized DIA
    sweep.
    """
    x = matrix.check_operand(x)
    if matrix.num_diags == 0 or matrix.n_rows == 0:
        return np.zeros(matrix.n_rows, dtype=matrix.dtype)
    cols = (
        matrix.offsets.astype(np.int64)[:, None]
        + np.arange(matrix.n_rows, dtype=np.int64)[None, :]
    )
    valid = (cols >= 0) & (cols < matrix.n_cols)
    gathered = np.where(valid, x[np.clip(cols, 0, matrix.n_cols - 1)], 0)
    return np.einsum("di,di->i", matrix.data, gathered)


@register_kernel(
    FormatName.DIA, strategy_set(Strategy.VECTORIZE, Strategy.UNROLL)
)
def dia_vectorized_unrolled(matrix: DIAMatrix, x: np.ndarray) -> np.ndarray:
    """Diagonal loop unrolled by two: amortises loop overhead when the
    matrix has many short diagonals."""
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    i = 0
    while i + 1 < matrix.num_diags:
        for d in (i, i + 1):
            k = int(matrix.offsets[d])
            i_start, j_start, n = _diag_bounds(matrix, k)
            if n > 0:
                y[i_start : i_start + n] += (
                    matrix.data[d, i_start : i_start + n]
                    * x[j_start : j_start + n]
                )
        i += 2
    if i < matrix.num_diags:
        k = int(matrix.offsets[i])
        i_start, j_start, n = _diag_bounds(matrix, k)
        if n > 0:
            y[i_start : i_start + n] += (
                matrix.data[i, i_start : i_start + n]
                * x[j_start : j_start + n]
            )
    return y


def _add_diagonals(
    matrix: DIAMatrix, x: np.ndarray, y: np.ndarray, row_lo: int, row_hi: int
) -> None:
    """Add every diagonal's contribution to rows ``row_lo:row_hi`` of Y,
    one slice-multiply-add per diagonal."""
    for i in range(matrix.num_diags):
        k = int(matrix.offsets[i])
        i_start, j_start, n = _diag_bounds(matrix, k)
        lo = max(i_start, row_lo)
        hi = min(i_start + n, row_hi)
        if hi <= lo:
            continue
        shift = j_start - i_start
        y[lo:hi] += matrix.data[i, lo:hi] * x[lo + shift : hi + shift]


@register_kernel(
    FormatName.DIA, strategy_set(Strategy.VECTORIZE, Strategy.ROW_BLOCK)
)
@register_kernel(
    FormatName.DIA,
    strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL, Strategy.ROW_BLOCK),
)
def dia_vectorized_blocked(matrix: DIAMatrix, x: np.ndarray) -> np.ndarray:
    """Row-blocked traversal: all diagonals of one row block are applied
    before moving on, so Y is written once per block instead of once per
    diagonal — the paper's fix for "frequent cache evict and memory write
    back" on large matrices.  Also the PARALLEL variant: on the host its
    row partition runs as this one blocked pass."""
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    for block_start in range(0, matrix.n_rows, ROW_BLOCK_SIZE):
        block_end = min(block_start + ROW_BLOCK_SIZE, matrix.n_rows)
        _add_diagonals(matrix, x, y, block_start, block_end)
    return y


@register_kernel(
    FormatName.DIA, strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL)
)
def dia_vectorized_sweep(matrix: DIAMatrix, x: np.ndarray) -> np.ndarray:
    """One sweep over the diagonals, each a slice-multiply-add over all
    of its rows.

    The PARALLEL variant: a row partition runs on the host as this one
    pass, and the simulated machine model applies the thread scaling.
    Unlike the broadcast :func:`dia_vectorized` it never builds the
    ``(num_diags, n_rows)`` gather plane, which makes that kernel 3-4x
    slower on a 14,400-row 9-point Laplacian.
    """
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    _add_diagonals(matrix, x, y, 0, matrix.n_rows)
    return y
