"""Property-based tests (hypothesis) on format invariants.

The core invariant of the whole system: *every* format conversion preserves
the logical matrix exactly, and SpMV in every format computes the same
product as the dense reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.formats import CSRMatrix, convert
from repro.types import BASIC_FORMATS


@st.composite
def sparse_dense_pairs(draw):
    """A random small dense matrix with controlled sparsity."""
    n_rows = draw(st.integers(min_value=1, max_value=12))
    n_cols = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        arrays(
            dtype=np.float64,
            shape=(n_rows, n_cols),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False
            ).map(lambda v: round(v, 3)),
        )
    )
    mask = draw(
        arrays(dtype=np.bool_, shape=(n_rows, n_cols), elements=st.booleans())
    )
    return np.where(mask, values, 0.0)


@given(sparse_dense_pairs())
@settings(max_examples=60, deadline=None)
def test_conversion_preserves_matrix(dense: np.ndarray) -> None:
    csr = CSRMatrix.from_dense(dense)
    for target in BASIC_FORMATS:
        out, _ = convert(csr, target, fill_budget=None)
        np.testing.assert_allclose(
            out.to_dense(), dense, atol=1e-12, err_msg=str(target)
        )


@given(sparse_dense_pairs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_spmv_agrees_with_dense(dense: np.ndarray, seed: int) -> None:
    csr = CSRMatrix.from_dense(dense)
    x = np.random.default_rng(seed).uniform(-10, 10, size=dense.shape[1])
    expected = dense @ x
    for target in BASIC_FORMATS:
        out, _ = convert(csr, target, fill_budget=None)
        np.testing.assert_allclose(
            out.spmv(x), expected, atol=1e-9, err_msg=str(target)
        )


@given(sparse_dense_pairs())
@settings(max_examples=60, deadline=None)
def test_nnz_consistent_across_formats(dense: np.ndarray) -> None:
    csr = CSRMatrix.from_dense(dense)
    expected = int(np.count_nonzero(dense))
    assert csr.nnz == expected
    for target in BASIC_FORMATS:
        out, _ = convert(csr, target, fill_budget=None)
        assert out.nnz == expected, str(target)


@given(sparse_dense_pairs())
@settings(max_examples=40, deadline=None)
def test_conversion_cost_nonnegative(dense: np.ndarray) -> None:
    csr = CSRMatrix.from_dense(dense)
    for target in BASIC_FORMATS:
        _, cost = convert(csr, target, fill_budget=None)
        assert cost.touched_slots >= 0
        assert cost.csr_spmv_units() >= 0.0


@given(sparse_dense_pairs())
@settings(max_examples=40, deadline=None)
def test_memory_bytes_positive_and_padding_aware(dense: np.ndarray) -> None:
    csr = CSRMatrix.from_dense(dense)
    for target in BASIC_FORMATS:
        out, _ = convert(csr, target, fill_budget=None)
        assert out.memory_bytes() >= 0
        # Padding can only add storage relative to the logical non-zeros.
        assert out.memory_bytes() >= out.nnz * dense.itemsize
