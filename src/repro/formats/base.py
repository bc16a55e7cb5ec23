"""Abstract base class of the sparse-matrix storage formats."""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.types import FormatName, Precision


class SparseMatrix(abc.ABC):
    """Common interface of all storage formats.

    Concrete formats store their arrays in the layout of the paper's
    Figure 2 and expose:

    * ``shape``, ``nnz`` — logical dimensions and stored non-zeros,
    * ``to_dense()`` — reference densification used by tests,
    * ``spmv(x)`` — the *reference* (clarity-first) kernel; optimized
      kernels live in :mod:`repro.kernels` and are selected by the tuner,
    * ``memory_bytes()`` — storage footprint including padding, feeding
      the cost model.
    """

    format_name: FormatName  # set by each concrete format class

    def __init__(self, shape: Tuple[int, int], dtype: np.dtype) -> None:
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows <= 0 or n_cols <= 0:
            raise FormatError(f"matrix shape must be positive, got {shape}")
        self._shape = (n_rows, n_cols)
        self._dtype = np.dtype(dtype)
        # Validates that the dtype is a supported precision.
        Precision.from_dtype(self._dtype)

    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, columns) of the logical matrix."""
        return self._shape

    @property
    def n_rows(self) -> int:
        return self._shape[0]

    @property
    def n_cols(self) -> int:
        return self._shape[1]

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (float32 or float64)."""
        return self._dtype

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self._dtype)

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored non-zero elements (excluding padding)."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialise the full dense matrix (tests and small examples only)."""

    @abc.abstractmethod
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference y = A @ x in this format's natural traversal order."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Bytes of all stored arrays, including any zero padding."""

    # ------------------------------------------------------------------
    # Value refresh (structure-keyed plan reuse)
    # ------------------------------------------------------------------
    def refresh_values(self, csr: "SparseMatrix") -> "SparseMatrix":
        """A new instance with this structure and ``csr``'s values.

        The serving layer's structure-keyed cache calls this on a tier-2
        hit: the sparsity pattern already matched (same structural
        digest), so only the value/padding arrays are rebuilt.  The
        structure arrays (pointers, indices, offsets, ...) are *shared*
        with the refreshed instance, and the scatter plan mapping CSR
        entries to stored slots is computed once and reused across
        refreshes — the steady state is one zero fill plus one scatter.

        The caller guarantees ``csr`` has exactly this matrix's sparsity
        structure (the engine keys on the structural digest); only the
        cheap invariants are re-checked here.
        """
        self._check_refresh_source(csr)
        return self._refresh_values(csr)

    def _check_refresh_source(self, csr: "SparseMatrix") -> None:
        from repro.formats.csr import CSRMatrix

        if not isinstance(csr, CSRMatrix):
            raise FormatError(
                f"refresh_values needs a CSRMatrix source, got "
                f"{type(csr).__name__}"
            )
        if csr.shape != self.shape:
            raise FormatError(
                f"refresh_values shape mismatch: source is {csr.shape}, "
                f"stored structure is {self.shape}"
            )
        if csr.dtype != self.dtype:
            raise FormatError(
                f"refresh_values dtype mismatch: source is {csr.dtype}, "
                f"stored structure is {self.dtype}"
            )

    def _refresh_values(self, csr: "SparseMatrix") -> "SparseMatrix":
        raise FormatError(
            f"{type(self).__name__} does not support value refresh"
        )

    def check_operand(self, x: np.ndarray) -> np.ndarray:
        """Validate and canonicalise an SpMV input vector."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise FormatError(f"x must be a vector, got shape {x.shape}")
        if x.shape[0] != self.n_cols:
            raise FormatError(
                f"dimension mismatch: matrix is {self.shape}, x has {x.shape[0]}"
            )
        return x.astype(self._dtype, copy=False)

    def check_operand_block(self, X: np.ndarray) -> np.ndarray:
        """Validate and canonicalise a multi-RHS SpMM input block.

        ``X`` stacks the RHS vectors column-wise: shape ``(n_cols, k)``
        for a batch of k products.
        """
        X = np.asarray(X)
        if X.ndim != 2:
            raise FormatError(
                f"X must be a 2-D RHS block, got shape {X.shape}"
            )
        if X.shape[0] != self.n_cols:
            raise FormatError(
                f"dimension mismatch: matrix is {self.shape}, X has "
                f"{X.shape[0]} rows"
            )
        if X.shape[1] < 1:
            raise FormatError("X must have at least one RHS column")
        return X.astype(self._dtype, copy=False)

    def spmm(self, X: np.ndarray) -> np.ndarray:
        """Reference ``Y = A @ X``: one reference SpMV per RHS column.

        Formats with a native multi-RHS kernel are served through
        :mod:`repro.kernels.spmm`; this default keeps every format
        correct under batching regardless.
        """
        X = self.check_operand_block(X)
        Y = np.empty((self.n_rows, X.shape[1]), dtype=self._dtype)
        for j in range(X.shape[1]):
            Y[:, j] = self.spmv(X[:, j])
        return Y

    def flop_count(self) -> int:
        """Floating point operations of one SpMV (2 per stored non-zero).

        This is the numerator of every GFLOPS figure in the paper: useless
        multiplies on DIA/ELL padding are *not* counted, which is exactly why
        heavy padding shows up as low GFLOPS.
        """
        return 2 * self.nnz

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype.name})"
        )
