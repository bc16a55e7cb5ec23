"""Format conversions with explicit cost accounting.

Section 7.3 charges the brute-force search baseline with *conversion*
overhead ("the conversion from CSR to ELL consumes 39.6 times of CSR-SpMV"
for one matrix).  Every converter here therefore returns, alongside the new
matrix, a :class:`ConversionCost` whose ``touched_slots`` counts element reads
plus writes *including padding* — the quantity that blows up for bad DIA/ELL
conversions and that the Table 3 bench converts into CSR-SpMV units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConversionError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.types import INDEX_DTYPE, FormatName
from repro.util.events import EventCounter

#: Ticks once per materialised format conversion (identity conversions are
#: free and do not count).  The serving layer reads this meter to prove
#: plan-cache hits reuse the already-converted matrix.
CONVERSION_EVENTS = EventCounter("format_conversions")

#: Refuse DIA/ELL conversions whose padded storage exceeds this multiple of
#: nnz.  Guards the execute-and-measure fallback from pathological blowups
#: (a power-law matrix converted to ELL can pad thousandfold).
DEFAULT_FILL_BUDGET = 20.0


@dataclass(frozen=True)
class ConversionCost:
    """Work accounting for one format conversion.

    ``touched_slots`` is the number of array slots read or written, padding
    included; dividing by ``2 * nnz`` (one CSR-SpMV's element operations)
    yields the paper's "times of CSR-SpMV" overhead unit.
    """

    source: FormatName
    target: FormatName
    nnz: int
    touched_slots: int

    def csr_spmv_units(self) -> float:
        """Conversion cost expressed in units of one CSR SpMV."""
        if self.nnz == 0:
            return 0.0
        return self.touched_slots / (2.0 * self.nnz)


def csr_to_coo(matrix: CSRMatrix) -> Tuple[COOMatrix, ConversionCost]:
    """Expand the row pointer into explicit row indices.

    A frozen CSR's ``indices`` and ``data`` can never change, so its COO
    shares them; a writeable CSR's are copied and validated.
    """
    rows = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
    )
    if matrix.is_frozen:
        coo = COOMatrix._from_validated(
            rows, matrix.indices, matrix.data, matrix.shape
        )
    else:
        coo = COOMatrix(
            rows, matrix.indices.copy(), matrix.data.copy(), matrix.shape
        )
    cost = ConversionCost(
        FormatName.CSR, FormatName.COO, matrix.nnz, touched_slots=3 * matrix.nnz
    )
    return coo, cost


def coo_to_csr(matrix: COOMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Sort triplets row-major and compress the row indices."""
    csr = CSRMatrix.from_triplets(
        matrix.rows, matrix.cols, matrix.data, matrix.shape
    )
    cost = ConversionCost(
        FormatName.COO, FormatName.CSR, matrix.nnz, touched_slots=4 * matrix.nnz
    )
    return csr, cost


def csr_to_dia(
    matrix: CSRMatrix, fill_budget: Optional[float] = DEFAULT_FILL_BUDGET
) -> Tuple[DIAMatrix, ConversionCost]:
    """Gather non-zeros into dense diagonals.

    Raises :class:`ConversionError` when ``num_diags * n_rows`` exceeds
    ``fill_budget * nnz`` (pass ``fill_budget=None`` to disable the guard).
    """
    offsets = matrix.diagonal_offsets()
    num_diags = int(offsets.shape[0])
    padded = num_diags * matrix.n_rows
    if fill_budget is not None and matrix.nnz and padded > fill_budget * matrix.nnz:
        raise ConversionError(
            f"CSR->DIA would allocate {padded} slots for {matrix.nnz} "
            f"non-zeros ({padded / matrix.nnz:.1f}x, budget "
            f"{fill_budget:.1f}x); refusing"
        )
    data = np.zeros((max(num_diags, 0), matrix.n_rows), dtype=matrix.dtype)
    if matrix.nnz:
        row_of = np.repeat(
            np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
        )
        diag_of = matrix.indices - row_of
        diag_slot = np.searchsorted(offsets, diag_of)
        data[diag_slot, row_of] = matrix.data
    dia = DIAMatrix(offsets, data, matrix.shape)
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.DIA,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + padded,
    )
    return dia, cost


def dia_to_csr(matrix: DIAMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Drop the padding and re-compress by row.

    Loop-free: diagonal offsets broadcast against the row index give every
    stored slot's column; one mask keeps the in-bounds non-zeros.
    """
    if matrix.data.size:
        offsets = matrix.offsets.astype(np.int64)
        row_grid = np.arange(matrix.n_rows, dtype=np.int64)[None, :]
        col_grid = row_grid + offsets[:, None]
        valid = (
            (col_grid >= 0) & (col_grid < matrix.n_cols) & (matrix.data != 0)
        )
        diag_of, rows = np.nonzero(valid)
        cols = rows + offsets[diag_of]
        vals = matrix.data[diag_of, rows]
    else:
        rows = np.zeros(0, dtype=INDEX_DTYPE)
        cols = np.zeros(0, dtype=INDEX_DTYPE)
        vals = np.zeros(0, dtype=matrix.dtype)
    csr = CSRMatrix.from_triplets(rows, cols, vals, matrix.shape)
    cost = ConversionCost(
        FormatName.DIA,
        FormatName.CSR,
        csr.nnz,
        touched_slots=matrix.padded_size + 3 * csr.nnz,
    )
    return csr, cost


def csr_to_ell(
    matrix: CSRMatrix, fill_budget: Optional[float] = DEFAULT_FILL_BUDGET
) -> Tuple[ELLMatrix, ConversionCost]:
    """Pack rows left and transpose to column-major ELL storage."""
    degrees = matrix.row_degrees()
    max_rd = int(degrees.max()) if matrix.n_rows and matrix.nnz else 0
    padded = max_rd * matrix.n_rows
    if fill_budget is not None and matrix.nnz and padded > fill_budget * matrix.nnz:
        raise ConversionError(
            f"CSR->ELL would allocate {padded} slots for {matrix.nnz} "
            f"non-zeros ({padded / matrix.nnz:.1f}x, budget "
            f"{fill_budget:.1f}x); refusing"
        )
    indices = np.zeros((max_rd, matrix.n_rows), dtype=INDEX_DTYPE)
    data = np.zeros((max_rd, matrix.n_rows), dtype=matrix.dtype)
    if matrix.nnz:
        row_of = np.repeat(
            np.arange(matrix.n_rows, dtype=INDEX_DTYPE), degrees
        )
        # Position of each entry within its row: index minus the row start.
        slot = np.arange(matrix.nnz, dtype=INDEX_DTYPE) - np.repeat(
            matrix.ptr[:-1], degrees
        )
        indices[slot, row_of] = matrix.indices
        data[slot, row_of] = matrix.data
    ell = ELLMatrix(indices, data, matrix.shape, matrix.nnz)
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.ELL,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + 2 * padded,
    )
    return ell, cost


def ell_to_csr(matrix: ELLMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Strip ELL padding (zero-valued slots) and compress."""
    valid = matrix.data != 0
    slots, rows = np.nonzero(valid)
    cols = matrix.indices[slots, rows]
    vals = matrix.data[slots, rows]
    csr = CSRMatrix.from_triplets(
        rows.astype(INDEX_DTYPE), cols, vals, matrix.shape
    )
    cost = ConversionCost(
        FormatName.ELL,
        FormatName.CSR,
        csr.nnz,
        touched_slots=matrix.padded_size + 3 * csr.nnz,
    )
    return csr, cost


def convert(
    matrix: SparseMatrix,
    target: FormatName,
    fill_budget: Optional[float] = DEFAULT_FILL_BUDGET,
) -> Tuple[SparseMatrix, ConversionCost]:
    """Convert ``matrix`` to ``target``, routing through CSR when needed.

    This is the single entry point the tuner's execute-and-measure path uses;
    any-to-any support keeps the AMG integration simple (operators arrive in
    whatever format the previous level chose).
    """
    if matrix.format_name is target:
        return matrix, ConversionCost(target, target, matrix.nnz, 0)
    CONVERSION_EVENTS.increment()
    with obs.span(
        "convert",
        source=matrix.format_name.value,
        target=target.value,
        nnz=int(matrix.nnz),
    ):
        return _convert(matrix, target, fill_budget)


def _convert(
    matrix: SparseMatrix,
    target: FormatName,
    fill_budget: Optional[float],
) -> Tuple[SparseMatrix, ConversionCost]:
    if isinstance(matrix, CSRMatrix):
        csr, to_csr_cost = matrix, None
    else:
        csr, to_csr_cost = _any_to_csr(matrix)

    if target is FormatName.CSR:
        out, out_cost = csr, ConversionCost(
            FormatName.CSR, FormatName.CSR, csr.nnz, 0
        )
    elif target is FormatName.COO:
        out, out_cost = csr_to_coo(csr)
    elif target is FormatName.DIA:
        out, out_cost = csr_to_dia(csr, fill_budget=fill_budget)
    elif target is FormatName.ELL:
        out, out_cost = csr_to_ell(csr, fill_budget=fill_budget)
    else:  # pragma: no cover - exhaustive over FormatName
        raise ConversionError(f"no conversion to {target}")

    slots = out_cost.touched_slots + (
        to_csr_cost.touched_slots if to_csr_cost else 0
    )
    return out, ConversionCost(matrix.format_name, target, out.nnz, slots)


def _any_to_csr(matrix: SparseMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    if isinstance(matrix, COOMatrix):
        return coo_to_csr(matrix)
    if isinstance(matrix, DIAMatrix):
        return dia_to_csr(matrix)
    if isinstance(matrix, ELLMatrix):
        return ell_to_csr(matrix)
    raise ConversionError(f"cannot convert {type(matrix).__name__} to CSR")


def conversion_cost(
    source: FormatName, target: FormatName, csr: CSRMatrix
) -> float:
    """Estimate (without building the target) the conversion cost in
    CSR-SpMV units; used by the cost model and the Table 3 accounting."""
    if source is target:
        return 0.0
    nnz = max(csr.nnz, 1)
    if target is FormatName.COO or source is FormatName.COO:
        return (3 * nnz) / (2 * nnz)
    if target is FormatName.DIA:
        padded = int(csr.diagonal_offsets().shape[0]) * csr.n_rows
        return (2 * nnz + padded) / (2 * nnz)
    if target is FormatName.ELL:
        degrees = csr.row_degrees()
        max_rd = int(degrees.max()) if degrees.size else 0
        padded = max_rd * csr.n_rows
        return (2 * nnz + 2 * padded) / (2 * nnz)
    return (4 * nnz) / (2 * nnz)
