"""ELL (ELLPACK) format — for matrices with near-uniform row degrees.

Layout (Figure 2d): non-zeros are packed left inside each row, and the packed
``n_rows x max_RD`` dense matrix is stored column-major — ``data[n, i]`` is
the ``n``-th packed element of row ``i``.  Rows shorter than ``max_RD`` are
padded with zero values pointing at column 0, so the kernel needs no branch:
``y[i] += 0 * x[0]`` is harmless.

ELL wins on regular matrices (vectorizes perfectly across rows) and loses when
``max_RD`` far exceeds the average row degree — the padding explosion the
``ER_ELL`` and ``var_RD`` features quantify.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.types import INDEX_DTYPE, FormatName


class ELLMatrix(SparseMatrix):
    """ELLPACK sparse matrix with column-major packed storage."""

    format_name = FormatName.ELL

    def __init__(
        self,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        nnz: int,
    ) -> None:
        data = np.asarray(data)
        super().__init__(shape, data.dtype)
        indices = np.asarray(indices, dtype=INDEX_DTYPE)
        if data.ndim != 2 or indices.ndim != 2:
            raise FormatError(
                f"ELL arrays must be 2-D, got data {data.shape}, "
                f"indices {indices.shape}"
            )
        if data.shape != indices.shape:
            raise FormatError(
                f"ELL data/indices shape mismatch: {data.shape} vs "
                f"{indices.shape}"
            )
        if data.shape[1] != self.n_rows:
            raise FormatError(
                f"ELL arrays must have n_rows={self.n_rows} columns "
                f"(column-major layout), got {data.shape[1]}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_cols):
            raise FormatError("ELL column indices out of range")
        if not 0 <= int(nnz) <= data.size:
            raise FormatError(f"nnz={nnz} inconsistent with ELL array size")
        self.indices = indices
        self.data = data
        self._nnz = int(nnz)

    @classmethod
    def _from_validated(
        cls,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        nnz: int,
    ) -> "ELLMatrix":
        """Internal: adopt already-canonical packed arrays unchecked.

        Only the delta-patch path uses this — the arrays are copies of an
        existing validated operand with a handful of rows re-scattered
        from a validated CSR, so the constructor's full min/max range
        sweep would be pure overhead on what is meant to be an O(delta)
        operation.
        """
        out = cls.__new__(cls)
        SparseMatrix.__init__(out, shape, data.dtype)
        out.indices = indices
        out.data = data
        out._nnz = int(nnz)
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "ELLMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise FormatError(f"dense matrix must be 2-D, got {dense.ndim}-D")
        n_rows, n_cols = dense.shape
        degrees = (dense != 0).sum(axis=1)
        max_rd = int(degrees.max()) if n_rows else 0
        indices = np.zeros((max_rd, n_rows), dtype=INDEX_DTYPE)
        data = np.zeros((max_rd, n_rows), dtype=dense.dtype)
        for i in range(n_rows):
            cols = np.nonzero(dense[i])[0]
            indices[: cols.shape[0], i] = cols
            data[: cols.shape[0], i] = dense[i, cols]
        return cls(indices, data, dense.shape, int(degrees.sum()))

    def _refresh_values(self, csr) -> "ELLMatrix":
        # One flat index into the C-ordered store, as in DIAMatrix.
        plan = getattr(self, "_refresh_plan", None)
        if plan is None:
            degrees = csr.row_degrees()
            row_of = np.repeat(
                np.arange(csr.n_rows, dtype=INDEX_DTYPE), degrees
            )
            slot = np.arange(csr.nnz, dtype=INDEX_DTYPE) - np.repeat(
                csr.ptr[:-1], degrees
            )
            plan = slot * self.n_rows + row_of
            self._refresh_plan = plan
        if plan.shape[0] != csr.nnz:
            raise FormatError(
                f"refresh_values nnz mismatch: source has {csr.nnz}, "
                f"stored structure scatters {plan.shape[0]}"
            )
        data = np.zeros(self.data.shape, self.data.dtype)
        data.ravel()[plan] = csr.data
        out = ELLMatrix(self.indices, data, self.shape, self._nnz)
        out._refresh_plan = plan
        return out

    @property
    def max_row_degree(self) -> int:
        """Width of the packed matrix (the paper's max_RD)."""
        return int(self.data.shape[0])

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def padded_size(self) -> int:
        """Total stored slots including padding (max_RD * n_rows)."""
        return int(self.data.size)

    def fill_ratio(self) -> float:
        """Fraction of stored slots holding real non-zeros (ER_ELL)."""
        if self.padded_size == 0:
            return 1.0
        return self.nnz / self.padded_size

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.dtype)
        for n in range(self.max_row_degree):
            mask = self.data[n] != 0
            rows = np.nonzero(mask)[0]
            dense[rows, self.indices[n, rows]] += self.data[n, rows]
        return dense

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference column-loop SpMV (Figure 2d): whole columns at a time."""
        x = self.check_operand(x)
        y = np.zeros(self.n_rows, dtype=self.dtype)
        for n in range(self.max_row_degree):
            y += self.data[n] * x[self.indices[n]]
        return y

    def memory_bytes(self) -> int:
        return int(self.indices.nbytes + self.data.nbytes)
