"""CSR (Compressed Sparse Row) — the paper's default, unified-interface format.

Layout (Figure 2a): ``data`` holds the non-zeros row by row, ``indices`` their
column indices, and ``ptr[i]:ptr[i+1]`` delimits row ``i``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.types import INDEX_DTYPE, FormatName
from repro.util.arrays import distinct
from repro.util.validation import (
    check_1d,
    check_index_range,
    check_same_length,
    check_sorted_within_rows,
)


class CSRMatrix(SparseMatrix):
    """Compressed sparse row matrix.

    The constructor canonicalises its input: column indices are sorted within
    each row and duplicate entries are summed, because the optimized kernels
    and the CSR->DIA/ELL converters rely on sorted, duplicate-free rows.

    A *frozen* matrix (:meth:`frozen`, :attr:`is_frozen`) holds its three
    arrays in immutable ``bytes``, so its content can never change; the
    serving layer's fingerprint is computed once for such a matrix and
    kept on it.
    """

    format_name = FormatName.CSR

    #: ``(ptr, indices, data, key)``: the content key
    #: :func:`repro.serve.fingerprint.fingerprint` computed over these
    #: very array objects, kept only while the matrix is frozen.
    _fingerprint_memo = None

    def __init__(
        self,
        ptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        data = np.asarray(data)
        super().__init__(shape, data.dtype)
        ptr = check_1d("ptr", np.asarray(ptr, dtype=INDEX_DTYPE))
        indices = check_1d("indices", np.asarray(indices, dtype=INDEX_DTYPE))
        data = check_1d("data", data)
        check_same_length(("indices", "data"), (indices, data))

        if ptr.shape[0] != self.n_rows + 1:
            raise FormatError(
                f"ptr must have n_rows+1 = {self.n_rows + 1} entries, "
                f"got {ptr.shape[0]}"
            )
        if int(ptr[0]) != 0 or int(ptr[-1]) != indices.shape[0]:
            raise FormatError(
                f"ptr must start at 0 and end at nnz={indices.shape[0]}, "
                f"got [{ptr[0]}, ..., {ptr[-1]}]"
            )
        if np.any(np.diff(ptr) < 0):
            raise FormatError("ptr must be monotonically non-decreasing")
        check_index_range("indices", indices, self.n_cols)

        if not check_sorted_within_rows(ptr, indices):
            ptr, indices, data = _canonicalise(ptr, indices, data, self.n_rows)

        self.ptr = ptr
        self.indices = indices
        self.data = data

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise FormatError(f"dense matrix must be 2-D, got {dense.ndim}-D")
        rows, cols = np.nonzero(dense)
        data = dense[rows, cols]
        ptr = np.zeros(dense.shape[0] + 1, dtype=INDEX_DTYPE)
        np.add.at(ptr, rows + 1, 1)
        np.cumsum(ptr, out=ptr)
        return cls(ptr, cols.astype(INDEX_DTYPE), data, dense.shape)

    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        """Build from unordered (row, col, value) triplets; duplicates sum."""
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        data = np.asarray(data)
        check_same_length(("rows", "cols", "data"), (rows, cols, data))
        check_index_range("rows", rows, int(shape[0]))
        check_index_range("cols", cols, int(shape[1]))
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        ptr = np.zeros(int(shape[0]) + 1, dtype=INDEX_DTYPE)
        np.add.at(ptr, rows + 1, 1)
        np.cumsum(ptr, out=ptr)
        return cls(ptr, cols, data, shape)

    @classmethod
    def _from_validated(
        cls,
        ptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        """Internal: adopt already-canonical structure arrays unchecked.

        The value refresh, the delta splice and :meth:`frozen` use this —
        their arrays come out of an existing validated instance, so
        re-running the constructor's canonicalisation would be pure
        overhead.
        """
        out = cls.__new__(cls)
        SparseMatrix.__init__(out, shape, data.dtype)
        out.ptr = ptr
        out.indices = indices
        out.data = data
        return out

    # ------------------------------------------------------------------
    # Immutability
    # ------------------------------------------------------------------
    def frozen(self) -> "CSRMatrix":
        """This matrix with its arrays copied into immutable ``bytes``.

        Every write to the result's arrays raises, and so does setting
        their ``writeable`` flag back.  A frozen matrix is returned as is.
        """
        if self.is_frozen:
            return self
        return CSRMatrix._from_validated(
            _freeze(self.ptr), _freeze(self.indices), _freeze(self.data),
            self.shape,
        )

    @property
    def is_frozen(self) -> bool:
        """True when no array of this matrix can ever be written.

        Each array must be read-only all the way down its base chain to a
        ``bytes`` object.  A read-only array that owns its memory is not
        frozen (its ``writeable`` flag can be set back), nor is a
        read-only view of a writeable array, nor an array over a
        ``bytearray`` or any other writeable buffer.
        """
        return (
            _immutable(self.ptr)
            and _immutable(self.indices)
            and _immutable(self.data)
        )

    def _refresh_values(self, csr: "CSRMatrix") -> "CSRMatrix":
        if csr.nnz != self.nnz:
            raise FormatError(
                f"refresh_values nnz mismatch: source has {csr.nnz}, "
                f"stored structure has {self.nnz}"
            )
        return CSRMatrix._from_validated(
            self.ptr, self.indices, csr.data.copy(), self.shape
        )

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def to_dense(self, reference: bool = False) -> np.ndarray:
        """Dense copy; ``reference=True`` keeps the row-loop oracle.

        The default scatters every entry in one ``np.add.at`` (add, not
        assign, so duplicate survivors, if any, still sum correctly).
        """
        dense = np.zeros(self.shape, dtype=self.dtype)
        if reference:
            for row in range(self.n_rows):
                start, end = int(self.ptr[row]), int(self.ptr[row + 1])
                np.add.at(
                    dense[row], self.indices[start:end], self.data[start:end]
                )
            return dense
        if self.nnz:
            row_of = np.repeat(
                np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_degrees()
            )
            np.add.at(dense, (row_of, self.indices), self.data)
        return dense

    def spmv(self, x: np.ndarray, reference: bool = False) -> np.ndarray:
        """SpMV; ``reference=True`` runs the row-loop oracle (Figure 2a).

        The default is the loop-free gather + cumulative-sum segment
        reduction (the same arithmetic as the library's vectorized CSR
        kernel), so code going through the format object — the serving
        verifier, AMG residuals, the apps — no longer pays a per-row
        Python loop.
        """
        x = self.check_operand(x)
        if reference:
            y = np.zeros(self.n_rows, dtype=self.dtype)
            for i in range(self.n_rows):
                start, end = int(self.ptr[i]), int(self.ptr[i + 1])
                if end > start:
                    y[i] = np.dot(
                        self.data[start:end], x[self.indices[start:end]]
                    )
            return y
        if self.nnz == 0:
            return np.zeros(self.n_rows, dtype=self.dtype)
        products = self.data * x[self.indices]
        csum = np.concatenate(
            [np.zeros(1, dtype=products.dtype), np.cumsum(products)]
        )
        return (csum[self.ptr[1:]] - csum[self.ptr[:-1]]).astype(
            self.dtype, copy=False
        )

    def memory_bytes(self) -> int:
        return int(
            self.ptr.nbytes + self.indices.nbytes + self.data.nbytes
        )

    # ------------------------------------------------------------------
    # Structure queries used by the feature extractor
    # ------------------------------------------------------------------
    def row_degrees(self) -> np.ndarray:
        """Number of stored non-zeros in each row."""
        return np.diff(self.ptr)

    def diagonal_offsets(self) -> np.ndarray:
        """Sorted distinct diagonal offsets (col - row) of the non-zeros."""
        if self.nnz == 0:
            return np.zeros(0, dtype=INDEX_DTYPE)
        row_of = np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_degrees()
        )
        return distinct(self.indices - row_of)


def _freeze(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array`` over an immutable ``bytes`` buffer."""
    return np.frombuffer(array.tobytes(), array.dtype)


def _immutable(array: np.ndarray) -> bool:
    """True when ``array`` and every array below it are read-only and
    the chain ends at a ``bytes`` object."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return type(array) is bytes


def _canonicalise(
    ptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort columns within rows and sum duplicates, rebuilding ptr.

    Fully vectorized (no per-row Python loop): entries are keyed by
    ``row * span + column``, sorted once, and duplicates merged with a
    single scatter-add — this path sits under every sparse matrix product
    in the AMG solver, where matrices have 10^5+ rows.
    """
    if indices.shape[0] == 0:
        return ptr.copy(), indices, data
    degrees = np.diff(ptr)
    row_of = np.repeat(np.arange(n_rows, dtype=INDEX_DTYPE), degrees)
    span = int(indices.max()) + 1
    keys = row_of * span + indices
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(unique_keys.shape[0], dtype=data.dtype)
    np.add.at(summed, inverse, data)
    out_rows = unique_keys // span
    out_cols = unique_keys % span
    new_ptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    np.add.at(new_ptr, out_rows + 1, 1)
    np.cumsum(new_ptr, out=new_ptr)
    return new_ptr, out_cols.astype(INDEX_DTYPE), summed
