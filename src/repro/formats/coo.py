"""COO (COOrdinate) format — favoured by power-law graph matrices.

Layout (Figure 2b): three parallel arrays ``rows``, ``cols``, ``data``.
The paper notes COO "usually performs better in large scale graph analysis
applications" because its performance is insensitive to row-degree skew:
work is proportional to nnz regardless of how unevenly rows fill.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.types import INDEX_DTYPE, FormatName
from repro.util.validation import check_1d, check_index_range, check_same_length


class COOMatrix(SparseMatrix):
    """Coordinate-format sparse matrix.

    Entries are stored in row-major sorted order (the order a CSR traversal
    would produce).  Duplicates are allowed by the format definition and sum
    during SpMV, but the converters never produce them.
    """

    format_name = FormatName.COO

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        data = np.asarray(data)
        super().__init__(shape, data.dtype)
        rows = check_1d("rows", np.asarray(rows, dtype=INDEX_DTYPE))
        cols = check_1d("cols", np.asarray(cols, dtype=INDEX_DTYPE))
        data = check_1d("data", data)
        check_same_length(("rows", "cols", "data"), (rows, cols, data))
        check_index_range("rows", rows, self.n_rows)
        check_index_range("cols", cols, self.n_cols)

        if rows.size and np.any(np.diff(rows) < 0):
            order = np.lexsort((cols, rows))
            rows, cols, data = rows[order], cols[order], data[order]

        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        return cls(
            rows.astype(INDEX_DTYPE),
            cols.astype(INDEX_DTYPE),
            dense[rows, cols],
            dense.shape,
        )

    @classmethod
    def _from_validated(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "COOMatrix":
        """Internal: adopt row-major sorted, in-range arrays unchecked.

        ``csr_to_coo`` uses this for a frozen CSR source, whose arrays
        are canonical and can never change, so the COO shares them.
        """
        out = cls.__new__(cls)
        SparseMatrix.__init__(out, shape, data.dtype)
        out.rows = rows
        out.cols = cols
        out.data = data
        return out

    def _refresh_values(self, csr) -> "COOMatrix":
        # CSR stores entries in exactly the row-major order the COO
        # converter produced, so the new data array maps over verbatim.
        if csr.nnz != self.nnz:
            raise FormatError(
                f"refresh_values nnz mismatch: source has {csr.nnz}, "
                f"stored structure has {self.nnz}"
            )
        return COOMatrix(self.rows, self.cols, csr.data.copy(), self.shape)

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference element-loop SpMV (Figure 2b): one scatter per nnz."""
        x = self.check_operand(x)
        y = np.zeros(self.n_rows, dtype=self.dtype)
        np.add.at(y, self.rows, self.data * x[self.cols])
        return y

    def memory_bytes(self) -> int:
        return int(self.rows.nbytes + self.cols.nbytes + self.data.nbytes)
