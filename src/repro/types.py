"""Common enums and type aliases shared across the library."""

from __future__ import annotations

import enum

import numpy as np


class Precision(enum.Enum):
    """Numerical precision of matrix values and SpMV arithmetic.

    Mirrors the paper's single-precision (SP) / double-precision (DP) split:
    every experiment in Section 7 is reported for both.
    """

    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self) -> np.dtype:
        """The NumPy dtype implementing this precision."""
        return np.dtype(np.float32 if self is Precision.SINGLE else np.float64)

    @property
    def bytes_per_value(self) -> int:
        """Storage size of one value in bytes (4 for SP, 8 for DP)."""
        return int(self.dtype.itemsize)

    @classmethod
    def from_dtype(cls, dtype: object) -> "Precision":
        """Map a NumPy dtype (or anything castable to one) to a precision."""
        dt = np.dtype(dtype)
        if dt == np.float32:
            return cls.SINGLE
        if dt == np.float64:
            return cls.DOUBLE
        raise ValueError(f"unsupported dtype for SpMV values: {dt}")


class FormatName(enum.Enum):
    """The four basic storage formats of the paper (Section 2.1)."""

    CSR = "CSR"
    COO = "COO"
    DIA = "DIA"
    ELL = "ELL"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The candidate formats SMAT's learning model classifies into
#: (the ``Cn(DIA, ELL, CSR, COO)`` of Equation 1).
BASIC_FORMATS = (FormatName.DIA, FormatName.ELL, FormatName.CSR, FormatName.COO)

#: Index dtype used by all compressed structures.
INDEX_DTYPE = np.dtype(np.int64)
