"""ELL SpMV kernel implementations."""

from __future__ import annotations

import numpy as np

from repro.formats.ell import ELLMatrix
from repro.kernels.base import register_kernel
from repro.kernels.strategies import Strategy, strategy_set
from repro.types import FormatName

ROW_BLOCK_SIZE = 8192


@register_kernel(FormatName.ELL, strategy_set())
def ell_basic(matrix: ELLMatrix, x: np.ndarray) -> np.ndarray:
    """Reference packed-column loop (Figure 2d), one slot at a time."""
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    for n in range(matrix.max_row_degree):
        for i in range(matrix.n_rows):
            y[i] += matrix.data[n, i] * x[matrix.indices[n, i]]
    return y


@register_kernel(FormatName.ELL, strategy_set(Strategy.VECTORIZE))
@register_kernel(
    FormatName.ELL, strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL)
)
def ell_vectorized(matrix: ELLMatrix, x: np.ndarray) -> np.ndarray:
    """One fused gather-multiply-reduce over the whole packed matrix.

    ``einsum`` reduces across packed slots in a single pass — the closest
    NumPy analogue of the fully SIMDized row-parallel ELL kernel.  Also
    registered as the PARALLEL variant: ELL's uniform per-row work makes
    a row partition trivial to balance (the "regular and easy-to-predict
    behavior" Section 6 cites), and the simulated machine model applies
    its thread scaling to this one pass.
    """
    x = matrix.check_operand(x)
    if matrix.max_row_degree == 0:
        return np.zeros(matrix.n_rows, dtype=matrix.dtype)
    return np.einsum("si,si->i", matrix.data, x[matrix.indices])


@register_kernel(
    FormatName.ELL, strategy_set(Strategy.VECTORIZE, Strategy.ROW_BLOCK)
)
@register_kernel(
    FormatName.ELL,
    strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL, Strategy.ROW_BLOCK),
)
def ell_vectorized_blocked(matrix: ELLMatrix, x: np.ndarray) -> np.ndarray:
    """Gather-reduce over row blocks so the gathered X slice stays hot.

    Also the PARALLEL variant: on the host its row partition runs as this
    one blocked pass.
    """
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    if matrix.max_row_degree == 0:
        return y
    for block_start in range(0, matrix.n_rows, ROW_BLOCK_SIZE):
        block_end = min(block_start + ROW_BLOCK_SIZE, matrix.n_rows)
        data = matrix.data[:, block_start:block_end]
        idx = matrix.indices[:, block_start:block_end]
        y[block_start:block_end] = np.einsum("si,si->i", data, x[idx])
    return y
