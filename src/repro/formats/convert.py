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
from repro.errors import ConversionError, FormatError
from repro.formats.base import SparseMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HYBMatrix
from repro.formats.sky import SKYMatrix
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


def csr_to_bcsr(
    matrix: CSRMatrix,
    block_shape: Tuple[int, int] = (2, 2),
    fill_budget: Optional[float] = DEFAULT_FILL_BUDGET,
) -> Tuple[BCSRMatrix, ConversionCost]:
    """Tile into aligned dense blocks of ``block_shape``."""
    r, c = int(block_shape[0]), int(block_shape[1])
    if r <= 0 or c <= 0:
        raise FormatError(f"block dims must be positive, got {block_shape}")
    if matrix.nnz == 0:
        n_block_rows = -(-matrix.n_rows // r)
        empty = BCSRMatrix(
            np.zeros(n_block_rows + 1, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros((0, r, c), dtype=matrix.dtype),
            matrix.shape,
            0,
        )
        return empty, ConversionCost(FormatName.CSR, FormatName.BCSR, 0, 0)

    row_of = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
    )
    brow = row_of // r
    bcol = matrix.indices // c
    n_block_cols = -(-matrix.n_cols // c)
    block_key = brow * n_block_cols + bcol
    unique_keys, inverse = np.unique(block_key, return_inverse=True)
    n_blocks = int(unique_keys.shape[0])
    padded = n_blocks * r * c
    if fill_budget is not None and padded > fill_budget * matrix.nnz:
        raise ConversionError(
            f"CSR->BCSR{block_shape} would allocate {padded} slots for "
            f"{matrix.nnz} non-zeros; refusing"
        )
    blocks = np.zeros((n_blocks, r, c), dtype=matrix.dtype)
    blocks[inverse, row_of % r, matrix.indices % c] = matrix.data

    block_rows = unique_keys // n_block_cols
    block_cols = unique_keys % n_block_cols
    n_block_rows = -(-matrix.n_rows // r)
    block_ptr = np.zeros(n_block_rows + 1, dtype=INDEX_DTYPE)
    np.add.at(block_ptr, block_rows + 1, 1)
    np.cumsum(block_ptr, out=block_ptr)

    bcsr = BCSRMatrix(block_ptr, block_cols, blocks, matrix.shape, matrix.nnz)
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.BCSR,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + padded,
    )
    return bcsr, cost


def bcsr_to_csr(matrix: BCSRMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Scatter dense blocks back into triplets, dropping block padding.

    Loop-free: one ``nonzero`` over the 3-D block array; each surviving
    slot's global row/column follows from its block's row (expanded from
    the block pointer) and stored block column.
    """
    r, c = matrix.block_shape
    if matrix.blocks.size:
        brow_of = np.repeat(
            np.arange(matrix.n_block_rows, dtype=INDEX_DTYPE),
            np.diff(matrix.block_ptr),
        )
        block_of, rr, cc = np.nonzero(matrix.blocks)
        rows = (brow_of[block_of] * r + rr).astype(INDEX_DTYPE)
        cols = (matrix.block_cols[block_of] * c + cc).astype(INDEX_DTYPE)
        vals = matrix.blocks[block_of, rr, cc]
    else:
        rows = np.zeros(0, dtype=INDEX_DTYPE)
        cols = np.zeros(0, dtype=INDEX_DTYPE)
        vals = np.zeros(0, dtype=matrix.dtype)
    csr = CSRMatrix.from_triplets(rows, cols, vals, matrix.shape)
    cost = ConversionCost(
        FormatName.BCSR,
        FormatName.CSR,
        csr.nnz,
        touched_slots=matrix.blocks.size + 3 * csr.nnz,
    )
    return csr, cost


def csr_to_csc(matrix: CSRMatrix) -> Tuple[CSCMatrix, ConversionCost]:
    """Resort the entries column-major (a transpose-style pass)."""
    csc = CSCMatrix.from_csr(matrix)
    cost = ConversionCost(
        FormatName.CSR, FormatName.CSC, matrix.nnz,
        touched_slots=4 * matrix.nnz,
    )
    return csc, cost


def csc_to_csr(matrix: CSCMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Resort the entries row-major."""
    cols = np.repeat(
        np.arange(matrix.n_cols, dtype=INDEX_DTYPE), matrix.column_degrees()
    )
    csr = CSRMatrix.from_triplets(
        matrix.indices, cols, matrix.data, matrix.shape
    )
    cost = ConversionCost(
        FormatName.CSC, FormatName.CSR, matrix.nnz,
        touched_slots=4 * matrix.nnz,
    )
    return csr, cost


def csr_to_sky(
    matrix: CSRMatrix, fill_budget: Optional[float] = DEFAULT_FILL_BUDGET
) -> Tuple[SKYMatrix, ConversionCost]:
    """Pack the lower profile densely; the strict upper part stays CSR.

    Raises :class:`ConversionError` for non-square matrices or when the
    profile (in-profile zeros included) blows the fill budget.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ConversionError(
            f"skyline needs a square matrix, got {matrix.shape}"
        )
    sky = SKYMatrix.from_csr(matrix)
    stored = sky.profile_size + (sky.upper.nnz if sky.upper else 0)
    if (
        fill_budget is not None
        and matrix.nnz
        and stored > fill_budget * matrix.nnz
    ):
        raise ConversionError(
            f"CSR->SKY would store {stored} slots for {matrix.nnz} "
            f"non-zeros ({stored / matrix.nnz:.1f}x, budget "
            f"{fill_budget:.1f}x); refusing"
        )
    cost = ConversionCost(
        FormatName.CSR, FormatName.SKY, matrix.nnz,
        touched_slots=2 * matrix.nnz + stored,
    )
    return sky, cost


def sky_to_csr(matrix: SKYMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Drop in-profile zeros and merge the upper remainder back in.

    Loop-free *and* sort-free: both sources arrive row-major with sorted
    columns — profile slots are stored left-to-right per row, and the
    strict-upper remainder is CSR — and every lower column is ≤ the
    diagonal while every upper column is > it.  Per-row concatenation of
    (kept lower, upper) is therefore already canonical CSR order, so the
    kernel is a counting pass (per-row degrees → pointer) plus two index
    scatters, with no ``lexsort`` over the merged triplets.
    """
    n = matrix.n_rows
    first = matrix.first_columns()
    widths = np.diff(matrix.pointers)
    row_of = np.repeat(np.arange(n, dtype=INDEX_DTYPE), widths)
    # Rank of each profile slot within its row: slot index minus row start.
    rank = np.arange(matrix.profile_size, dtype=INDEX_DTYPE) - np.repeat(
        matrix.pointers[:-1], widths
    )
    col_of = np.repeat(first, widths) + rank
    keep = matrix.profile != 0
    lower_rows = row_of[keep]
    lower_deg = np.bincount(lower_rows, minlength=n).astype(INDEX_DTYPE)
    if matrix.upper is not None:
        upper_deg = matrix.upper.row_degrees().astype(INDEX_DTYPE)
        upper_ptr = matrix.upper.ptr
    else:
        upper_deg = np.zeros(n, dtype=INDEX_DTYPE)
        upper_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(lower_deg + upper_deg, out=ptr[1:])
    nnz = int(ptr[-1])
    indices = np.empty(nnz, dtype=INDEX_DTYPE)
    data = np.empty(nnz, dtype=matrix.dtype)
    # Destination of each kept lower slot: its row's segment start plus
    # its rank among the row's kept slots.
    lower_starts = np.zeros(n, dtype=INDEX_DTYPE)
    np.cumsum(lower_deg[:-1], out=lower_starts[1:])
    lower_dest = (
        np.repeat(ptr[:-1], lower_deg)
        + np.arange(lower_rows.shape[0], dtype=INDEX_DTYPE)
        - np.repeat(lower_starts, lower_deg)
    )
    indices[lower_dest] = col_of[keep]
    data[lower_dest] = matrix.profile[keep]
    if matrix.upper is not None:
        # Upper entries land after their row's lower block, keeping the
        # remainder's own within-row order.
        upper_dest = (
            np.repeat(ptr[:-1] + lower_deg, upper_deg)
            + np.arange(matrix.upper.nnz, dtype=INDEX_DTYPE)
            - np.repeat(upper_ptr[:-1], upper_deg)
        )
        indices[upper_dest] = matrix.upper.indices
        data[upper_dest] = matrix.upper.data
    csr = CSRMatrix._from_validated(ptr, indices, data, matrix.shape)
    cost = ConversionCost(
        FormatName.SKY, FormatName.CSR, csr.nnz,
        touched_slots=matrix.profile_size + 3 * csr.nnz,
    )
    return csr, cost


def csr_to_bdia(
    matrix: CSRMatrix,
    fill_budget: Optional[float] = DEFAULT_FILL_BUDGET,
    max_band_gap: int = 0,
) -> Tuple["BDIAMatrix", ConversionCost]:
    """Group occupied diagonals into contiguous bands.

    ``max_band_gap`` merges bands separated by at most that many empty
    diagonals (the empty ones are stored as zero padding) — trading a
    little fill for fewer, longer bands.
    """
    from repro.formats.bdia import BDIAMatrix

    offsets = matrix.diagonal_offsets()
    if offsets.shape[0] == 0:
        raise ConversionError("cannot build BDIA from an empty matrix")

    # Partition sorted offsets into contiguous runs (allowing small gaps).
    band_starts = [int(offsets[0])]
    band_ends = [int(offsets[0])]
    for k in offsets[1:]:
        k = int(k)
        if k - band_ends[-1] <= 1 + max_band_gap:
            band_ends[-1] = k
        else:
            band_starts.append(k)
            band_ends.append(k)

    padded = sum(
        (end - start + 1) * matrix.n_rows
        for start, end in zip(band_starts, band_ends)
    )
    if (
        fill_budget is not None
        and matrix.nnz
        and padded > fill_budget * matrix.nnz
    ):
        raise ConversionError(
            f"CSR->BDIA would allocate {padded} slots for {matrix.nnz} "
            f"non-zeros ({padded / matrix.nnz:.1f}x, budget "
            f"{fill_budget:.1f}x); refusing"
        )

    bands = [
        np.zeros((end - start + 1, matrix.n_rows), dtype=matrix.dtype)
        for start, end in zip(band_starts, band_ends)
    ]
    if matrix.nnz:
        row_of = np.repeat(
            np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
        )
        diag_of = matrix.indices - row_of
        band_idx = np.searchsorted(
            np.asarray(band_starts, dtype=INDEX_DTYPE), diag_of, side="right"
        ) - 1
        starts_arr = np.asarray(band_starts, dtype=INDEX_DTYPE)
        within = diag_of - starts_arr[band_idx]
        for b in range(len(bands)):
            mask = band_idx == b
            bands[b][within[mask], row_of[mask]] = matrix.data[mask]

    bdia = BDIAMatrix(
        np.asarray(band_starts, dtype=INDEX_DTYPE), bands, matrix.shape
    )
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.BDIA,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + padded,
    )
    return bdia, cost


def bdia_to_csr(matrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Drop band padding and re-compress by row."""
    rows_list = []
    cols_list = []
    vals_list = []
    row_grid = np.arange(matrix.n_rows, dtype=np.int64)[None, :]
    for start, band in zip(matrix.offsets, matrix.bands):
        # One broadcast per band: offset + row index gives every slot's
        # column, one mask keeps the in-bounds non-zeros.
        offsets = int(start) + np.arange(band.shape[0], dtype=np.int64)
        col_grid = row_grid + offsets[:, None]
        valid = (col_grid >= 0) & (col_grid < matrix.n_cols) & (band != 0)
        diag_of, rows = np.nonzero(valid)
        rows_list.append(rows)
        cols_list.append(rows + offsets[diag_of])
        vals_list.append(band[diag_of, rows])
    rows = np.concatenate(rows_list) if rows_list else np.zeros(0, INDEX_DTYPE)
    cols = np.concatenate(cols_list) if cols_list else np.zeros(0, INDEX_DTYPE)
    vals = (
        np.concatenate(vals_list)
        if vals_list
        else np.zeros(0, dtype=matrix.dtype)
    )
    csr = CSRMatrix.from_triplets(rows, cols, vals, matrix.shape)
    cost = ConversionCost(
        FormatName.BDIA,
        FormatName.CSR,
        csr.nnz,
        touched_slots=matrix.padded_size + 3 * csr.nnz,
    )
    return csr, cost


def csr_to_hyb(
    matrix: CSRMatrix, ell_width: Optional[int] = None
) -> Tuple[HYBMatrix, ConversionCost]:
    """Split at ``ell_width``: the CuSparse heuristic (default: the width
    covering at least 2/3 of rows) keeps the regular part in ELL."""
    degrees = matrix.row_degrees()
    if ell_width is None:
        # Guard the empty-degrees case *before* np.percentile: an all-empty
        # or zero-row matrix must not warn or produce a NaN width.
        if matrix.nnz == 0 or degrees.size == 0:
            ell_width = 0
        else:
            ell_width = int(np.percentile(degrees, 67))
    ell_width = max(int(ell_width), 0)

    n_rows = matrix.n_rows
    indices = np.zeros((ell_width, n_rows), dtype=INDEX_DTYPE)
    data = np.zeros((ell_width, n_rows), dtype=matrix.dtype)
    if matrix.nnz:
        row_of = np.repeat(np.arange(n_rows, dtype=INDEX_DTYPE), degrees)
        # Rank of each entry within its row decides the ELL/COO split.
        rank = np.arange(matrix.nnz, dtype=INDEX_DTYPE) - np.repeat(
            matrix.ptr[:-1], degrees
        )
        in_ell = rank < ell_width
        indices[rank[in_ell], row_of[in_ell]] = matrix.indices[in_ell]
        data[rank[in_ell], row_of[in_ell]] = matrix.data[in_ell]
        ell_nnz = int(np.count_nonzero(in_ell))
        overflow = ~in_ell
        coo = COOMatrix(
            row_of[overflow],
            matrix.indices[overflow],
            matrix.data[overflow],
            matrix.shape,
        )
    else:
        ell_nnz = 0
        coo = COOMatrix(
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=matrix.dtype),
            matrix.shape,
        )
    ell = ELLMatrix(indices, data, matrix.shape, ell_nnz)
    hyb = HYBMatrix(ell, coo)
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.HYB,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + 2 * ell.padded_size + 3 * coo.nnz,
    )
    return hyb, cost


def hyb_to_csr(matrix: HYBMatrix) -> Tuple[CSRMatrix, ConversionCost]:
    """Merge both parts back into a single CSR matrix."""
    ell_csr, ell_cost = ell_to_csr(matrix.ell_part)
    rows = np.concatenate(
        [
            np.repeat(
                np.arange(matrix.n_rows, dtype=INDEX_DTYPE),
                ell_csr.row_degrees(),
            ),
            matrix.coo_part.rows,
        ]
    )
    cols = np.concatenate([ell_csr.indices, matrix.coo_part.cols])
    vals = np.concatenate([ell_csr.data, matrix.coo_part.data])
    csr = CSRMatrix.from_triplets(rows, cols, vals, matrix.shape)
    cost = ConversionCost(
        FormatName.HYB,
        FormatName.CSR,
        csr.nnz,
        touched_slots=ell_cost.touched_slots + 4 * matrix.coo_part.nnz,
    )
    return csr, cost


def convert(
    matrix: SparseMatrix,
    target: FormatName,
    fill_budget: Optional[float] = DEFAULT_FILL_BUDGET,
    **options: object,
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
        return _convert(matrix, target, fill_budget, options)


def _convert(
    matrix: SparseMatrix,
    target: FormatName,
    fill_budget: Optional[float],
    options: dict,
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
    elif target is FormatName.BCSR:
        block_shape = options.get("block_shape", (2, 2))
        out, out_cost = csr_to_bcsr(
            csr, block_shape=block_shape, fill_budget=fill_budget  # type: ignore[arg-type]
        )
    elif target is FormatName.HYB:
        out, out_cost = csr_to_hyb(
            csr, ell_width=options.get("ell_width")  # type: ignore[arg-type]
        )
    elif target is FormatName.CSC:
        out, out_cost = csr_to_csc(csr)
    elif target is FormatName.BDIA:
        out, out_cost = csr_to_bdia(csr, fill_budget=fill_budget)
    elif target is FormatName.SKY:
        out, out_cost = csr_to_sky(csr, fill_budget=fill_budget)
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
    if isinstance(matrix, BCSRMatrix):
        return bcsr_to_csr(matrix)
    if isinstance(matrix, HYBMatrix):
        return hyb_to_csr(matrix)
    if isinstance(matrix, CSCMatrix):
        return csc_to_csr(matrix)
    if isinstance(matrix, SKYMatrix):
        return sky_to_csr(matrix)
    from repro.formats.bdia import BDIAMatrix

    if isinstance(matrix, BDIAMatrix):
        return bdia_to_csr(matrix)
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
