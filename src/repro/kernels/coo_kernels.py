"""COO SpMV kernel implementations."""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOMatrix
from repro.kernels.base import register_kernel
from repro.kernels.strategies import Strategy, strategy_set
from repro.types import FormatName


@register_kernel(FormatName.COO, strategy_set())
def coo_basic(matrix: COOMatrix, x: np.ndarray) -> np.ndarray:
    """Reference element loop (Figure 2b)."""
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    for i in range(matrix.nnz):
        y[matrix.rows[i]] += matrix.data[i] * x[matrix.cols[i]]
    return y


@register_kernel(FormatName.COO, strategy_set(Strategy.VECTORIZE))
@register_kernel(
    FormatName.COO, strategy_set(Strategy.VECTORIZE, Strategy.PARALLEL)
)
def coo_vectorized(matrix: COOMatrix, x: np.ndarray) -> np.ndarray:
    """Bulk gather-multiply then an unordered scatter-add.

    Works for arbitrary (even duplicate, unsorted) coordinates, the fully
    general contract of the format.  Also registered as the PARALLEL
    variant: an element partition gives every thread identical work
    however skewed the rows are, and on the host that partition runs as
    this one pass (the simulated machine model applies the scaling).
    """
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    if matrix.nnz:
        np.add.at(y, matrix.rows, matrix.data * x[matrix.cols])
    return y


@register_kernel(
    FormatName.COO, strategy_set(Strategy.VECTORIZE, Strategy.ROW_BLOCK)
)
def coo_segmented(matrix: COOMatrix, x: np.ndarray) -> np.ndarray:
    """Segmented reduction exploiting the row-major sort order.

    The constructor guarantees ``rows`` is sorted, so each row's entries are
    contiguous; a cumulative sum plus boundary differences replaces the
    scatter-add — the same trick GPU COO kernels use.
    """
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    if matrix.nnz == 0:
        return y
    products = matrix.data * x[matrix.cols]
    csum = np.concatenate(
        [np.zeros(1, dtype=products.dtype), np.cumsum(products)]
    )
    boundaries = np.searchsorted(
        matrix.rows, np.arange(matrix.n_rows + 1, dtype=matrix.rows.dtype)
    )
    y[:] = csum[boundaries[1:]] - csum[boundaries[:-1]]
    return y
