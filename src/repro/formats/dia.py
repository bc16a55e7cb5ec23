"""DIA (Diagonal) format — the fastest format for banded matrices.

Layout (Figure 2c): ``offsets[i]`` is the offset of diagonal ``i`` relative
to the principal diagonal (negative = below), and ``data`` is a dense
``(num_diags, stride)`` array with ``stride = n_rows``; ``data[i, r]`` holds
the element at logical position ``(r, r + offsets[i])``, zero-filled where the
diagonal leaves the matrix or the element is absent.

DIA wins when diagonals are dense ("true diagonals"): X-vector access is
contiguous and no column indices are stored at all.  It loses exactly as the
paper describes — sparse diagonals mean wasted multiply-adds on padding,
captured by the ``ER_DIA`` and ``NTdiags_ratio`` features.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.types import INDEX_DTYPE, FormatName
from repro.util.arrays import distinct
from repro.util.validation import check_1d


class DIAMatrix(SparseMatrix):
    """Diagonal-major sparse matrix."""

    format_name = FormatName.DIA

    def __init__(
        self,
        offsets: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        data = np.asarray(data)
        super().__init__(shape, data.dtype)
        offsets = check_1d("offsets", np.asarray(offsets, dtype=INDEX_DTYPE))
        if data.ndim != 2:
            raise FormatError(f"DIA data must be 2-D, got shape {data.shape}")
        if data.shape[0] != offsets.shape[0]:
            raise FormatError(
                f"data has {data.shape[0]} diagonals but offsets has "
                f"{offsets.shape[0]}"
            )
        if data.shape[1] != self.n_rows:
            raise FormatError(
                f"DIA stride must equal n_rows={self.n_rows}, "
                f"got {data.shape[1]}"
            )
        if offsets.size and np.any(np.diff(offsets) <= 0):
            order = np.argsort(offsets)
            offsets, data = offsets[order], data[order]
        lo, hi = -self.n_rows + 1, self.n_cols - 1
        if offsets.size and (offsets[0] < lo or offsets[-1] > hi):
            raise FormatError(
                f"diagonal offsets must lie in [{lo}, {hi}], "
                f"got [{offsets[0]}, {offsets[-1]}]"
            )
        self.offsets = offsets
        self.data = data

    @classmethod
    def _from_validated(
        cls,
        offsets: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "DIAMatrix":
        """Internal: adopt an already-canonical diagonal store unchecked.

        Only the delta-patch path uses this — ``offsets`` is a copy of an
        existing validated operand's (already sorted, already in range)
        and ``data`` differs from its store at the touched coordinates
        only, so re-running the constructor's checks would be pure
        overhead on what is meant to be an O(delta) operation.
        """
        out = cls.__new__(cls)
        SparseMatrix.__init__(out, shape, data.dtype)
        out.offsets = offsets
        out.data = data
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DIAMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise FormatError(f"dense matrix must be 2-D, got {dense.ndim}-D")
        n_rows, n_cols = dense.shape
        rows, cols = np.nonzero(dense)
        offsets = distinct(cols - rows)
        data = np.zeros((offsets.shape[0], n_rows), dtype=dense.dtype)
        for i, k in enumerate(offsets):
            r_start = max(0, -int(k))
            r_end = min(n_rows, n_cols - int(k))
            rr = np.arange(r_start, r_end)
            data[i, rr] = dense[rr, rr + int(k)]
        return cls(offsets.astype(INDEX_DTYPE), data, dense.shape)

    def _refresh_values(self, csr) -> "DIAMatrix":
        # The plan is one flat index into the C-ordered store: a 1-D
        # scatter costs about half of the 2-D ``data[diag_slot, row_of]``.
        plan = getattr(self, "_refresh_plan", None)
        if plan is None:
            row_of = np.repeat(
                np.arange(csr.n_rows, dtype=INDEX_DTYPE), csr.row_degrees()
            )
            diag_slot = np.searchsorted(self.offsets, csr.indices - row_of)
            plan = diag_slot * self.n_rows + row_of
            self._refresh_plan = plan
        if plan.shape[0] != csr.nnz:
            raise FormatError(
                f"refresh_values nnz mismatch: source has {csr.nnz}, "
                f"stored structure scatters {plan.shape[0]}"
            )
        # Fresh C-ordered array, so ravel() is a view and the write lands.
        data = np.zeros(self.data.shape, self.data.dtype)
        data.ravel()[plan] = csr.data
        out = DIAMatrix(self.offsets, data, self.shape)
        out._refresh_plan = plan
        return out

    @property
    def num_diags(self) -> int:
        """Number of stored diagonals (the paper's Ndiags)."""
        return int(self.offsets.shape[0])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def padded_size(self) -> int:
        """Total stored slots including zero padding (num_diags * n_rows)."""
        return int(self.data.size)

    def fill_ratio(self) -> float:
        """Fraction of stored slots that hold real non-zeros (ER_DIA)."""
        if self.padded_size == 0:
            return 1.0
        return self.nnz / self.padded_size

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.dtype)
        for i, k in enumerate(self.offsets):
            k = int(k)
            r_start = max(0, -k)
            r_end = min(self.n_rows, self.n_cols - k)
            rr = np.arange(r_start, r_end)
            dense[rr, rr + k] = self.data[i, rr]
        return dense

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference diagonal-loop SpMV (Figure 2c).

        Note the traversal multiplies padding zeros too — exactly the
        "useless computation on zero elements" the paper charges DIA with.
        """
        x = self.check_operand(x)
        y = np.zeros(self.n_rows, dtype=self.dtype)
        for i in range(self.num_diags):
            k = int(self.offsets[i])
            i_start = max(0, -k)
            j_start = max(0, k)
            n = min(self.n_rows - i_start, self.n_cols - j_start)
            if n <= 0:
                continue
            y[i_start : i_start + n] += (
                self.data[i, i_start : i_start + n] * x[j_start : j_start + n]
            )
        return y

    def memory_bytes(self) -> int:
        return int(self.offsets.nbytes + self.data.nbytes)
