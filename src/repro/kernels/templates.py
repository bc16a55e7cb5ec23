"""Per-format SpMV source emitters for the ``codegen`` kernel backend.

Each emitter inspects one converted matrix and writes the text of a
specialized kernel function::

    def spmv(matrix, x, aux):
        ...
        return y

with every *structural* constant folded into the source as a literal —
diagonal offsets and slice bounds for DIA/BDIA, the packed width for ELL,
the ``r x c`` block shape for BCSR, the ELL/COO split for HYB, and the
distinct row degrees for CSR.  Values (``matrix.data`` and friends) stay
runtime inputs, so a compiled kernel survives ``refresh_values`` — the
refreshed matrix shares the structure the source was folded against.

Structural arrays too large to embed as literals (degree-bucket gather
indices, COO row boundaries) are precomputed here and returned as ``aux``;
the backend binds them into the kernel closure.  Because ``aux`` derives
deterministically from structure, two structurally identical matrices can
share one compiled code object (the compile cache in ``codegen.py`` is
keyed by the source hash alone) while each binds its own ``aux``.

The emitted bodies are chosen to beat the generic vectorized kernels on
their home structure family, not merely to match them:

* DIA drops the masked clip-gather planes for direct slice-AXPYs with
  literal bounds.
* BCSR and HYB replace ``np.add.at`` scatters with contiguous
  segment-sum reductions (stored blocks / COO triplets are already
  sorted by row).
* CSR groups equal-degree rows and reduces each bucket with one
  ``einsum`` instead of the global cumsum segment trick.

Every template is differentially gated bitwise against the CSR reference
in ``tests/test_codegen_differential.py`` before the backend may serve it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import CodegenError
from repro.formats.base import SparseMatrix
from repro.types import FormatName
from repro.util.arrays import distinct

#: Unroll ceilings.  Beyond these the generated source would grow without
#: bound (one line per diagonal / packed slot / degree bucket) and the
#: compile itself would dominate — the emitter refuses and the backend
#: keeps the generic kernel.
MAX_DIAGS = 64
MAX_ELL_SLOTS = 32
MAX_DEGREE_BUCKETS = 8

#: ``aux`` payload: structural arrays bound into the kernel closure.
Aux = Tuple[object, ...]


@dataclass(frozen=True)
class GeneratedSource:
    """One emitted kernel: source text plus its structural constants."""

    format_name: FormatName
    source: str
    aux: Aux


def _diag_bounds(
    k: int, n_rows: int, n_cols: int
) -> Tuple[int, int, int]:
    """Slice bounds of diagonal ``k`` (mirrors dia_kernels._diag_bounds)."""
    i_start = max(0, -k)
    j_start = max(0, k)
    n = min(n_rows - i_start, n_cols - j_start)
    return i_start, j_start, n


def _emit_dia(matrix: SparseMatrix) -> GeneratedSource:
    """DIA: one slice-AXPY per diagonal, bounds folded to literals."""
    num_diags = int(matrix.num_diags)
    if num_diags > MAX_DIAGS:
        raise CodegenError(
            f"DIA matrix has {num_diags} diagonals; unroll ceiling is "
            f"{MAX_DIAGS}"
        )
    lines = [
        "def spmv(matrix, x, aux):",
        f"    # codegen: DIA, {num_diags} diagonals, "
        f"shape ({matrix.n_rows}, {matrix.n_cols})",
        "    data = matrix.data",
        f"    y = np.zeros({matrix.n_rows}, dtype=data.dtype)",
    ]
    for d in range(num_diags):
        k = int(matrix.offsets[d])
        i0, j0, n = _diag_bounds(k, matrix.n_rows, matrix.n_cols)
        if n <= 0:
            continue
        lines.append(
            f"    y[{i0}:{i0 + n}] += "
            f"data[{d}, {i0}:{i0 + n}] * x[{j0}:{j0 + n}]"
        )
    lines.append("    return y")
    return GeneratedSource(FormatName.DIA, "\n".join(lines) + "\n", ())


def _emit_bdia(matrix: SparseMatrix) -> GeneratedSource:
    """BDIA: band loops fully unrolled, per-diagonal bounds folded."""
    if int(matrix.num_diags) > MAX_DIAGS:
        raise CodegenError(
            f"BDIA matrix has {matrix.num_diags} diagonals; unroll "
            f"ceiling is {MAX_DIAGS}"
        )
    lines = [
        "def spmv(matrix, x, aux):",
        f"    # codegen: BDIA, {matrix.n_bands} bands / "
        f"{matrix.num_diags} diagonals, "
        f"shape ({matrix.n_rows}, {matrix.n_cols})",
        "    bands = matrix.bands",
        f"    y = np.zeros({matrix.n_rows}, dtype=bands[0].dtype)",
    ]
    for b in range(matrix.n_bands):
        base = int(matrix.offsets[b])
        width = int(matrix.bands[b].shape[0])
        lines.append(f"    band_{b} = bands[{b}]")
        for j in range(width):
            k = base + j
            i0, j0, n = _diag_bounds(k, matrix.n_rows, matrix.n_cols)
            if n <= 0:
                continue
            lines.append(
                f"    y[{i0}:{i0 + n}] += "
                f"band_{b}[{j}, {i0}:{i0 + n}] * x[{j0}:{j0 + n}]"
            )
    lines.append("    return y")
    return GeneratedSource(FormatName.BDIA, "\n".join(lines) + "\n", ())


def _emit_ell(matrix: SparseMatrix) -> GeneratedSource:
    """ELL: packed-slot loop unrolled; padding rides along (0 * x[0])."""
    width = int(matrix.max_row_degree)
    if width > MAX_ELL_SLOTS:
        raise CodegenError(
            f"ELL matrix packs {width} slots per row; unroll ceiling is "
            f"{MAX_ELL_SLOTS}"
        )
    lines = [
        "def spmv(matrix, x, aux):",
        f"    # codegen: ELL, width {width}, "
        f"shape ({matrix.n_rows}, {matrix.n_cols})",
        "    data = matrix.data",
        "    indices = matrix.indices",
    ]
    if width == 0:
        lines.append(f"    return np.zeros({matrix.n_rows}, dtype=data.dtype)")
    else:
        lines.append("    y = data[0] * x[indices[0]]")
        for s in range(1, width):
            lines.append(f"    y += data[{s}] * x[indices[{s}]]")
        lines.append("    return y")
    return GeneratedSource(FormatName.ELL, "\n".join(lines) + "\n", ())


def _emit_bcsr(matrix: SparseMatrix) -> GeneratedSource:
    """BCSR: folded block shape + segment-sum instead of ``np.add.at``.

    Stored blocks are sorted by block row, so the per-block-row reduction
    is a contiguous segment sum over the ``(n_blocks, r)`` partials — a
    prefix-sum difference replaces the scatter the generic kernel pays.
    """
    r, c = (int(v) for v in matrix.block_shape)
    n_blocks = int(matrix.n_blocks)
    n_block_rows = int(matrix.n_block_rows)
    pad_cols = -(-matrix.n_cols // c) * c
    lines = [
        "def spmv(matrix, x, aux):",
        f"    # codegen: BCSR, {n_blocks} blocks of {r}x{c}, "
        f"shape ({matrix.n_rows}, {matrix.n_cols})",
    ]
    if n_blocks == 0:
        lines.append(
            f"    return np.zeros({matrix.n_rows}, dtype=matrix.dtype)"
        )
        return GeneratedSource(FormatName.BCSR, "\n".join(lines) + "\n", ())
    if pad_cols == matrix.n_cols:
        lines.append(f"    x_blocks = x.reshape({pad_cols // c}, {c})")
    else:
        lines += [
            f"    x_padded = np.zeros({pad_cols}, dtype=x.dtype)",
            f"    x_padded[:{matrix.n_cols}] = x",
            f"    x_blocks = x_padded.reshape({pad_cols // c}, {c})",
        ]
    lines += [
        "    partial = np.einsum(",
        "        'krc,kc->kr', matrix.blocks, x_blocks[matrix.block_cols]",
        "    )",
        f"    csum = np.empty(({n_blocks + 1}, {r}), dtype=partial.dtype)",
        "    csum[0] = 0.0",
        "    np.cumsum(partial, axis=0, out=csum[1:])",
        "    ptr = matrix.block_ptr",
        "    y_blocks = csum[ptr[1:]] - csum[ptr[:-1]]",
        f"    return y_blocks.reshape({n_block_rows * r})[:{matrix.n_rows}]",
    ]
    return GeneratedSource(FormatName.BCSR, "\n".join(lines) + "\n", ())


def _emit_hyb(matrix: SparseMatrix) -> GeneratedSource:
    """HYB: slot-unrolled ELL part + one scattered COO tail.

    The generic kernel dispatches two sub-kernels through the registry,
    allocates two partial results, and reduces the ELL slab with a
    2-D ``einsum`` whose dispatch cost dominates at the narrow widths the
    HYB split actually produces (power-law matrices land at width 1-3).
    Here the width is a structural constant, so each slot becomes one
    explicit AXPY (``y += ell.data[s] * x[ell.indices[s]]``) and the COO
    overflow folds into the same accumulator with a single ``np.add.at``
    scatter.  Segment tricks (``reduceat`` over precomputed overflow
    rows, ``bincount``) were measured and lose: the overflow tail of a
    power-law matrix touches thousands of distinct rows, so the gather
    index arithmetic costs more than the scatter it replaces.
    """
    ell = matrix.ell_part
    coo = matrix.coo_part
    width = int(ell.max_row_degree)
    if width > MAX_ELL_SLOTS:
        raise CodegenError(
            f"HYB ELL part packs {width} slots per row; unroll ceiling "
            f"is {MAX_ELL_SLOTS}"
        )
    coo_nnz = int(coo.nnz)
    lines = [
        "def spmv(matrix, x, aux):",
        f"    # codegen: HYB, ELL width {width} + {coo_nnz} COO overflow "
        f"entries, shape ({matrix.n_rows}, {matrix.n_cols})",
        "    ell = matrix.ell_part",
    ]
    if width == 0:
        lines.append(
            f"    y = np.zeros({matrix.n_rows}, dtype=ell.data.dtype)"
        )
    else:
        lines.append("    y = ell.data[0] * x[ell.indices[0]]")
        for slot in range(1, width):
            lines.append(
                f"    y += ell.data[{slot}] * x[ell.indices[{slot}]]"
            )
    if coo_nnz:
        lines += [
            "    coo = matrix.coo_part",
            "    np.add.at(y, coo.rows, coo.data * x[coo.cols])",
        ]
    lines.append("    return y")
    return GeneratedSource(FormatName.HYB, "\n".join(lines) + "\n", ())


def _emit_csr(matrix: SparseMatrix) -> GeneratedSource:
    """CSR: degree-bucketed body — one dense ``einsum`` per distinct degree.

    Rows sharing a degree gather into a rectangular ``(rows, degree)``
    tile reduced in one shot, skipping the global cumsum segment trick.
    Matrices with many distinct degrees (power-law tails) overflow
    ``MAX_DEGREE_BUCKETS`` and keep the generic kernel.
    """
    degrees = np.diff(matrix.ptr)
    buckets = distinct(degrees)
    buckets = buckets[buckets > 0]
    if buckets.shape[0] > MAX_DEGREE_BUCKETS:
        raise CodegenError(
            f"CSR matrix has {buckets.shape[0]} distinct row degrees; "
            f"bucket ceiling is {MAX_DEGREE_BUCKETS}"
        )
    aux_items: List[object] = []
    lines = [
        "def spmv(matrix, x, aux):",
        f"    # codegen: CSR, {buckets.shape[0]} degree buckets "
        f"{[int(d) for d in buckets]}, "
        f"shape ({matrix.n_rows}, {matrix.n_cols})",
        "    data = matrix.data",
        "    indices = matrix.indices",
        f"    y = np.zeros({matrix.n_rows}, dtype=data.dtype)",
    ]
    for b, d in enumerate(int(v) for v in buckets):
        rows = np.nonzero(degrees == d)[0].astype(np.int64)
        positions = (
            matrix.ptr[rows].astype(np.int64)[:, None]
            + np.arange(d, dtype=np.int64)[None, :]
        )
        aux_items.append((rows, positions))
        lines += [
            f"    rows_{b}, pos_{b} = aux[{b}]  # degree {d}, "
            f"{rows.shape[0]} rows",
            f"    y[rows_{b}] = np.einsum(",
            f"        'rd,rd->r', data[pos_{b}], x[indices[pos_{b}]]",
            "    )",
        ]
    lines.append("    return y")
    return GeneratedSource(
        FormatName.CSR, "\n".join(lines) + "\n", tuple(aux_items)
    )


_EMITTERS: Dict[FormatName, Callable[[SparseMatrix], GeneratedSource]] = {
    FormatName.CSR: _emit_csr,
    FormatName.DIA: _emit_dia,
    FormatName.BDIA: _emit_bdia,
    FormatName.ELL: _emit_ell,
    FormatName.BCSR: _emit_bcsr,
    FormatName.HYB: _emit_hyb,
}

#: Formats the codegen backend can specialize.
CODEGEN_FORMATS: Tuple[FormatName, ...] = tuple(_EMITTERS)


def emit(matrix: SparseMatrix) -> GeneratedSource:
    """Emit specialized SpMV source for ``matrix``.

    Raises :class:`CodegenError` for formats without a template or
    matrices outside a template's unroll envelope.
    """
    emitter = _EMITTERS.get(matrix.format_name)
    if emitter is None:
        raise CodegenError(
            f"no codegen template for format {matrix.format_name.value!r} "
            f"(templates cover "
            f"{[f.value for f in CODEGEN_FORMATS]})"
        )
    return emitter(matrix)
