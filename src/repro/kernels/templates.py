"""Per-format SpMV source emitters for the ``codegen`` kernel backend.

Each emitter inspects one converted matrix and writes the text of a
specialized kernel function::

    def spmv(matrix, x, aux):
        ...
        return y

with every *structural* constant folded into the source as a literal —
diagonal offsets and slice bounds for DIA, the packed width for ELL, and
the distinct row degrees for CSR.  Values (``matrix.data`` and friends) stay
runtime inputs, so a compiled kernel survives ``refresh_values`` — the
refreshed matrix shares the structure the source was folded against.

Structural arrays too large to embed as literals (CSR's degree-bucket
gather indices) are precomputed here and returned as ``aux``; the
backend binds them into the kernel closure.  Because ``aux`` derives
deterministically from structure, two structurally identical matrices can
share one compiled code object (the compile cache in ``codegen.py`` is
keyed by the source hash alone) while each binds its own ``aux``.

The emitted bodies are chosen to beat the generic vectorized kernels on
their home structure family, not merely to match them:

* DIA drops the masked clip-gather planes for direct slice-AXPYs with
  literal bounds.
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
    FormatName.ELL: _emit_ell,
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
