"""Sparse-ops tests: transpose, matmul, the Galerkin product, diagonal."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import CSRMatrix
from repro.formats.ops import diagonal, matmul, transpose
from tests.conftest import random_csr


class TestTranspose:
    def test_matches_dense(self, rng) -> None:
        a = random_csr(rng, 20, 15, 0.2)
        np.testing.assert_array_equal(
            transpose(a).to_dense(), a.to_dense().T
        )

    def test_double_transpose_identity(self, rng) -> None:
        a = random_csr(rng, 12, 30, 0.15)
        np.testing.assert_array_equal(
            transpose(transpose(a)).to_dense(), a.to_dense()
        )

    def test_empty(self) -> None:
        a = CSRMatrix(np.zeros(4, np.int64), [], np.zeros(0), (3, 5))
        t = transpose(a)
        assert t.shape == (5, 3)
        assert t.nnz == 0


class TestMatmul:
    def test_matches_dense(self, rng) -> None:
        a = random_csr(rng, 12, 20, 0.25)
        b = random_csr(rng, 20, 9, 0.25)
        np.testing.assert_allclose(
            matmul(a, b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12
        )

    def test_identity(self, rng) -> None:
        a = random_csr(rng, 10, 10, 0.3)
        eye = CSRMatrix.from_dense(np.eye(10))
        np.testing.assert_allclose(
            matmul(a, eye).to_dense(), a.to_dense(), atol=1e-12
        )

    def test_dimension_mismatch(self, rng) -> None:
        with pytest.raises(FormatError, match="mismatch"):
            matmul(random_csr(rng, 4, 5, 0.5), random_csr(rng, 4, 5, 0.5))

    def test_empty_operand(self, rng) -> None:
        a = random_csr(rng, 6, 8, 0.3)
        empty = CSRMatrix(np.zeros(9, np.int64), [], np.zeros(0), (8, 4))
        out = matmul(a, empty)
        assert out.shape == (6, 4)
        assert out.nnz == 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_random_products(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        a = random_csr(rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)),
                       0.3)
        b = random_csr(rng, a.n_cols, int(rng.integers(1, 15)), 0.3)
        np.testing.assert_allclose(
            matmul(a, b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-10
        )


class TestTripleProduct:
    def test_galerkin_matches_dense(self, rng) -> None:
        # The coarse operator as the AMG hierarchy forms it: R = P^T is
        # kept for the level, so the product is R (A P).
        a = random_csr(rng, 16, 16, 0.25)
        p = random_csr(rng, 16, 6, 0.3)
        expected = p.to_dense().T @ a.to_dense() @ p.to_dense()
        np.testing.assert_allclose(
            matmul(transpose(p), matmul(a, p)).to_dense(), expected,
            atol=1e-10,
        )


class TestHelpers:
    def test_diagonal(self, rng) -> None:
        a = random_csr(rng, 10, 10, 0.4)
        np.testing.assert_array_equal(diagonal(a), np.diag(a.to_dense()))

    def test_diagonal_rectangular(self, rng) -> None:
        a = random_csr(rng, 8, 5, 0.4)
        np.testing.assert_array_equal(
            diagonal(a), np.diag(a.to_dense())
        )
