"""Sparse linear-algebra operations on CSR matrices.

The AMG substrate needs more than SpMV: transposes for the restriction
operator, sparse-times-sparse for the Galerkin product ``P^T A P``, and
the diagonal for smoothing and interpolation.  Everything here is
vectorized — these run on operators with 10^5+ rows inside the Table 4
bench.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.csr import CSRMatrix
from repro.types import INDEX_DTYPE


def transpose(matrix: CSRMatrix) -> CSRMatrix:
    """``A^T`` as a new CSR matrix."""
    rows = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
    )
    return CSRMatrix.from_triplets(
        matrix.indices, rows, matrix.data, (matrix.n_cols, matrix.n_rows)
    )


def matmul(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """``A @ B`` for CSR operands.

    One fully-vectorized expansion pass: every stored ``A[i, k]`` spawns the
    whole row ``B[k, :]`` scaled by the entry; :class:`CSRMatrix`'s
    canonicalising constructor merges the duplicates.  Memory is
    proportional to the number of *partial* products — fine for the
    short-row operators AMG produces.
    """
    if a.n_cols != b.n_rows:
        raise FormatError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape}"
        )
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix(
            np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=a.dtype),
            (a.n_rows, b.n_cols),
        )

    b_degrees = np.diff(b.ptr)
    counts = b_degrees[a.indices]  # expansion width per A entry
    total = int(counts.sum())
    if total == 0:
        return CSRMatrix(
            np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=a.dtype),
            (a.n_rows, b.n_cols),
        )

    a_rows = np.repeat(
        np.arange(a.n_rows, dtype=INDEX_DTYPE), a.row_degrees()
    )
    out_rows = np.repeat(a_rows, counts)
    # Flat positions into B's arrays for every partial product.
    starts = b.ptr[a.indices]
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                     counts)
    flat = base + np.arange(total, dtype=INDEX_DTYPE)
    out_cols = b.indices[flat]
    out_vals = np.repeat(a.data, counts) * b.data[flat]
    return CSRMatrix.from_triplets(
        out_rows, out_cols, out_vals, (a.n_rows, b.n_cols)
    )


def diagonal(matrix: CSRMatrix) -> np.ndarray:
    """The main diagonal as a dense vector (zeros where unset)."""
    diag = np.zeros(min(matrix.shape), dtype=matrix.dtype)
    rows = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
    )
    mask = rows == matrix.indices
    diag_rows = rows[mask]
    keep = diag_rows < diag.shape[0]
    diag[diag_rows[keep]] = matrix.data[mask][keep]
    return diag
