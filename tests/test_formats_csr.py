"""Unit tests for the CSR format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import CSRMatrix
from repro.formats.convert import csr_to_coo
from repro.types import INDEX_DTYPE
from repro.util.arrays import distinct

ARRAYS = ("ptr", "indices", "data")


class TestConstruction:
    def test_paper_example_arrays(self, paper_csr: CSRMatrix) -> None:
        # Exactly the arrays printed in Figure 2a.
        assert paper_csr.ptr.tolist() == [0, 2, 4, 7, 9]
        assert paper_csr.indices.tolist() == [0, 1, 1, 2, 0, 2, 3, 1, 3]
        assert paper_csr.data.tolist() == [1, 5, 2, 6, 8, 3, 7, 9, 4]

    def test_shape_and_nnz(self, paper_csr: CSRMatrix) -> None:
        assert paper_csr.shape == (4, 4)
        assert paper_csr.nnz == 9

    def test_round_trip_dense(self, paper_dense: np.ndarray) -> None:
        csr = CSRMatrix.from_dense(paper_dense)
        np.testing.assert_array_equal(csr.to_dense(), paper_dense)

    def test_from_triplets_unordered(self) -> None:
        csr = CSRMatrix.from_triplets(
            rows=[2, 0, 1, 0], cols=[1, 3, 0, 0], data=[4.0, 3.0, 2.0, 1.0],
            shape=(3, 4),
        )
        expected = np.zeros((3, 4))
        expected[2, 1], expected[0, 3], expected[1, 0], expected[0, 0] = 4, 3, 2, 1
        np.testing.assert_array_equal(csr.to_dense(), expected)

    def test_from_triplets_sums_duplicates(self) -> None:
        csr = CSRMatrix.from_triplets(
            rows=[1, 1, 1], cols=[2, 2, 0], data=[1.0, 2.0, 5.0], shape=(3, 3)
        )
        assert csr.nnz == 2
        assert csr.to_dense()[1, 2] == 3.0

    def test_unsorted_rows_are_canonicalised(self) -> None:
        # Row 0 given with columns out of order.
        csr = CSRMatrix(
            ptr=[0, 3, 3],
            indices=[2, 0, 1],
            data=[30.0, 10.0, 20.0],
            shape=(2, 3),
        )
        assert csr.indices.tolist() == [0, 1, 2]
        assert csr.data.tolist() == [10.0, 20.0, 30.0]

    def test_empty_matrix(self) -> None:
        csr = CSRMatrix(ptr=[0, 0, 0], indices=[], data=np.zeros(0), shape=(2, 5))
        assert csr.nnz == 0
        np.testing.assert_array_equal(csr.spmv(np.ones(5)), np.zeros(2))

    def test_single_precision_dtype_kept(self, paper_dense: np.ndarray) -> None:
        csr = CSRMatrix.from_dense(paper_dense.astype(np.float32))
        assert csr.dtype == np.float32
        assert csr.spmv(np.ones(4, dtype=np.float32)).dtype == np.float32


class TestValidation:
    def test_bad_ptr_length(self) -> None:
        with pytest.raises(FormatError, match="ptr"):
            CSRMatrix(ptr=[0, 1], indices=[0], data=[1.0], shape=(2, 2))

    def test_ptr_not_starting_at_zero(self) -> None:
        with pytest.raises(FormatError, match="ptr"):
            CSRMatrix(ptr=[1, 1, 1], indices=[], data=np.zeros(0), shape=(2, 2))

    def test_decreasing_ptr(self) -> None:
        with pytest.raises(FormatError, match="non-decreasing"):
            CSRMatrix(
                ptr=[0, 2, 1, 3], indices=[0, 1, 0], data=[1.0, 2.0, 3.0],
                shape=(3, 2),
            )

    def test_column_index_out_of_range(self) -> None:
        with pytest.raises(FormatError, match="out of range"):
            CSRMatrix(ptr=[0, 1], indices=[5], data=[1.0], shape=(1, 3))

    def test_mismatched_data_length(self) -> None:
        with pytest.raises(FormatError, match="equal length"):
            CSRMatrix(ptr=[0, 2], indices=[0, 1], data=[1.0], shape=(1, 2))

    def test_nonpositive_shape(self) -> None:
        with pytest.raises(FormatError, match="positive"):
            CSRMatrix(ptr=[0], indices=[], data=np.zeros(0), shape=(0, 3))

    def test_integer_dtype_rejected(self) -> None:
        with pytest.raises(ValueError, match="dtype"):
            CSRMatrix(
                ptr=[0, 1], indices=[0], data=np.array([1], dtype=np.int32),
                shape=(1, 1),
            )


class TestSpmv:
    def test_matches_dense(self, paper_csr: CSRMatrix, paper_dense) -> None:
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(paper_csr.spmv(x), paper_dense @ x)

    def test_dimension_mismatch(self, paper_csr: CSRMatrix) -> None:
        with pytest.raises(FormatError, match="mismatch"):
            paper_csr.spmv(np.ones(5))

    def test_matrix_operand_rejected(self, paper_csr: CSRMatrix) -> None:
        with pytest.raises(FormatError, match="vector"):
            paper_csr.spmv(np.ones((4, 1)))


class TestStructureQueries:
    def test_row_degrees(self, paper_csr: CSRMatrix) -> None:
        assert paper_csr.row_degrees().tolist() == [2, 2, 3, 2]

    def test_diagonal_offsets(self, paper_csr: CSRMatrix) -> None:
        # Figure 2c: offsets are [-2, 0, 1].
        assert paper_csr.diagonal_offsets().tolist() == [-2, 0, 1]
        identity = CSRMatrix.from_dense(np.eye(3))
        assert identity.diagonal_offsets().tolist() == [0]
        # The shared dedupe helper is np.unique, values and dtype, down
        # to the empty and the single-value array.
        for values in (
            np.zeros(0, dtype=INDEX_DTYPE),
            np.array([7], dtype=INDEX_DTYPE),
            np.array([7, 7, 7], dtype=INDEX_DTYPE),
            np.array([3, -2, 3, 0, -2], dtype=np.int64),
        ):
            expected = np.unique(values)
            got = distinct(values)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_memory_bytes_counts_all_arrays(self, paper_csr: CSRMatrix) -> None:
        expected = (
            paper_csr.ptr.nbytes
            + paper_csr.indices.nbytes
            + paper_csr.data.nbytes
        )
        assert paper_csr.memory_bytes() == expected

    def test_flop_count(self, paper_csr: CSRMatrix) -> None:
        assert paper_csr.flop_count() == 2 * paper_csr.nnz


class TestReferenceOracles:
    """The vectorized to_dense/spmv defaults vs their loop oracles.

    The duplicate-entry matrices go through ``from_triplets``, which sums
    duplicates at construction; values are small integers, so both code
    paths are exact and the comparison can be bitwise (``np.array_equal``).
    """

    def _duplicate_matrix(self) -> CSRMatrix:
        rows = np.array([0, 0, 0, 1, 2, 2, 3, 3, 3, 3])
        cols = np.array([1, 1, 3, 2, 0, 0, 3, 3, 3, 0])
        data = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 3.0, 5.0, 7.0, 9.0])
        return CSRMatrix.from_triplets(rows, cols, data, (4, 4))

    def test_to_dense_matches_reference(self) -> None:
        matrix = self._duplicate_matrix()
        assert np.array_equal(
            matrix.to_dense(), matrix.to_dense(reference=True)
        )

    def test_to_dense_sums_duplicates(self) -> None:
        matrix = self._duplicate_matrix()
        dense = matrix.to_dense()
        assert dense[0, 1] == 3.0   # 1 + 2 summed at construction
        assert dense[2, 0] == 48.0  # 16 + 32
        assert dense[3, 3] == 15.0  # 3 + 5 + 7

    def test_spmv_matches_reference(self) -> None:
        matrix = self._duplicate_matrix()
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert np.array_equal(
            matrix.spmv(x), matrix.spmv(x, reference=True)
        )

    def test_spmv_empty_rows_and_zero_nnz(self) -> None:
        empty = CSRMatrix.from_dense(np.zeros((3, 3)))
        x = np.ones(3)
        assert np.array_equal(empty.spmv(x), np.zeros(3))
        assert np.array_equal(empty.spmv(x), empty.spmv(x, reference=True))
        assert np.array_equal(
            empty.to_dense(), empty.to_dense(reference=True)
        )


def _with_array(matrix: CSRMatrix, name: str, array: np.ndarray) -> CSRMatrix:
    """``matrix`` with its ``name`` array swapped for ``array``."""
    arrays = {key: getattr(matrix, key) for key in ARRAYS}
    arrays[name] = array
    return CSRMatrix._from_validated(
        arrays["ptr"], arrays["indices"], arrays["data"], matrix.shape
    )


def _read_only_owner(array: np.ndarray) -> np.ndarray:
    out = array.copy()
    out.flags.writeable = False
    return out


def _read_only_view(array: np.ndarray) -> np.ndarray:
    out = array.copy()[:]
    out.flags.writeable = False
    return out


def _over_bytearray(array: np.ndarray) -> np.ndarray:
    out = np.frombuffer(bytearray(array.tobytes()), array.dtype)
    out.flags.writeable = False
    return out


class TestFrozen:
    def test_frozen_copy_is_bitwise_equal(self, paper_csr: CSRMatrix) -> None:
        frozen = paper_csr.frozen()
        assert frozen is not paper_csr
        assert frozen.is_frozen and not paper_csr.is_frozen
        assert frozen.shape == paper_csr.shape
        assert frozen.dtype == paper_csr.dtype
        for name in ARRAYS:
            source, copy = getattr(paper_csr, name), getattr(frozen, name)
            assert copy.dtype == source.dtype
            assert copy.tobytes() == source.tobytes()
            assert not np.shares_memory(copy, source)

    def test_frozen_matrix_is_returned_as_is(self, paper_csr) -> None:
        frozen = paper_csr.frozen()
        assert frozen.frozen() is frozen

    def test_empty_matrix_freezes(self) -> None:
        frozen = CSRMatrix.from_dense(np.zeros((3, 4))).frozen()
        assert frozen.is_frozen and frozen.nnz == 0
        assert np.array_equal(frozen.spmv(np.ones(4)), np.zeros(3))

    @pytest.mark.parametrize("name", ARRAYS)
    def test_every_write_raises(self, paper_csr, name) -> None:
        array = getattr(paper_csr.frozen(), name)
        view = array[1:]
        with pytest.raises(ValueError):
            array[0] = 1
        with pytest.raises(ValueError):
            view[0] = 1
        with pytest.raises(ValueError):
            array.flags.writeable = True
        with pytest.raises(ValueError):
            view.flags.writeable = True

    @pytest.mark.parametrize("name", ARRAYS)
    @pytest.mark.parametrize(
        "make", [_read_only_owner, _read_only_view, _over_bytearray]
    )
    def test_arrays_that_can_change_are_not_frozen(
        self, paper_csr, name, make
    ) -> None:
        frozen = paper_csr.frozen()
        array = make(getattr(paper_csr, name))
        assert not array.flags.writeable
        assert not _with_array(frozen, name, array).is_frozen
        # A frozen array's view keeps the matrix frozen.
        assert _with_array(frozen, name, getattr(frozen, name)[:]).is_frozen

    def test_coo_of_frozen_csr_shares_its_arrays(self, paper_csr) -> None:
        frozen = paper_csr.frozen()
        shared, _ = csr_to_coo(frozen)
        copied, _ = csr_to_coo(paper_csr)
        assert np.shares_memory(shared.cols, frozen.indices)
        assert np.shares_memory(shared.data, frozen.data)
        assert not np.shares_memory(copied.cols, paper_csr.indices)
        assert not np.shares_memory(copied.data, paper_csr.data)
        assert shared.shape == copied.shape
        for name in ("rows", "cols", "data"):
            a, b = getattr(shared, name), getattr(copied, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
