"""Loop-based reference implementations of the cold-path conversions.

The converters in :mod:`repro.formats.convert` are loop-free NumPy index
arithmetic; these are the per-row/per-element Python loops they replaced,
retained deliberately as

* **correctness oracles** — the property tests assert the vectorized
  converters produce bitwise-identical ``ptr``/``indices``/``data`` arrays
  and identical :class:`~repro.formats.convert.ConversionCost` accounting
  against these, and
* **benchmark baselines** — ``repro bench-perf`` reports every vectorized
  operation's speedup over its retained loop reference (the
  ``speedup_vs_python_loop`` column of ``BENCH_perf.json``).

Each function mirrors its vectorized twin's signature, fill-budget guard
and ``touched_slots`` formula exactly; only the traversal differs.  None
of them tick the conversion/extraction event meters — oracles must not
perturb the serving layer's bookkeeping.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConversionError
from repro.formats.convert import DEFAULT_FILL_BUDGET, ConversionCost
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.types import INDEX_DTYPE, FormatName


def csr_to_ell_loop(
    matrix: CSRMatrix, fill_budget: Optional[float] = DEFAULT_FILL_BUDGET
) -> Tuple[ELLMatrix, ConversionCost]:
    """Per-row packing loop (the pre-vectorization ``csr_to_ell``)."""
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
    for i in range(matrix.n_rows):
        start, end = int(matrix.ptr[i]), int(matrix.ptr[i + 1])
        for slot, jj in enumerate(range(start, end)):
            indices[slot, i] = matrix.indices[jj]
            data[slot, i] = matrix.data[jj]
    ell = ELLMatrix(indices, data, matrix.shape, matrix.nnz)
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.ELL,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + 2 * padded,
    )
    return ell, cost


def csr_to_dia_loop(
    matrix: CSRMatrix, fill_budget: Optional[float] = DEFAULT_FILL_BUDGET
) -> Tuple[DIAMatrix, ConversionCost]:
    """Per-element diagonal scatter loop (the pre-vectorization path)."""
    seen = set()
    for i in range(matrix.n_rows):
        for jj in range(int(matrix.ptr[i]), int(matrix.ptr[i + 1])):
            seen.add(int(matrix.indices[jj]) - i)
    offsets = np.asarray(sorted(seen), dtype=INDEX_DTYPE)
    num_diags = int(offsets.shape[0])
    padded = num_diags * matrix.n_rows
    if fill_budget is not None and matrix.nnz and padded > fill_budget * matrix.nnz:
        raise ConversionError(
            f"CSR->DIA would allocate {padded} slots for {matrix.nnz} "
            f"non-zeros ({padded / matrix.nnz:.1f}x, budget "
            f"{fill_budget:.1f}x); refusing"
        )
    slot_of = {int(k): s for s, k in enumerate(offsets)}
    data = np.zeros((max(num_diags, 0), matrix.n_rows), dtype=matrix.dtype)
    for i in range(matrix.n_rows):
        for jj in range(int(matrix.ptr[i]), int(matrix.ptr[i + 1])):
            k = int(matrix.indices[jj]) - i
            data[slot_of[k], i] = matrix.data[jj]
    dia = DIAMatrix(offsets, data, matrix.shape)
    cost = ConversionCost(
        FormatName.CSR,
        FormatName.DIA,
        matrix.nnz,
        touched_slots=2 * matrix.nnz + padded,
    )
    return dia, cost


def extract_structure_features_loop(matrix: CSRMatrix) -> dict:
    """Per-row/per-element Table 2 feature pass (benchmark baseline).

    Walks the structure with Python loops, then applies the *same* summary
    formulas as :func:`repro.features.extract.extract_structure_features`
    on the collected arrays, so results match to the last bit.  Does not
    tick the extraction event meter.
    """
    from repro.features.extract import TRUE_DIAGONAL_THRESHOLD
    from repro.util.stats import gini_like_variance

    m, n = matrix.shape
    nnz = matrix.nnz

    degrees = np.zeros(m, dtype=INDEX_DTYPE)
    diag_counts: dict = {}
    for i in range(m):
        start, end = int(matrix.ptr[i]), int(matrix.ptr[i + 1])
        degrees[i] = end - start
        for jj in range(start, end):
            k = int(matrix.indices[jj]) - i
            diag_counts[k] = diag_counts.get(k, 0) + 1

    aver_rd = nnz / m
    max_rd = int(degrees.max()) if degrees.size else 0
    var_rd = gini_like_variance(degrees, aver_rd)

    ndiags = len(diag_counts)
    n_true = 0
    for k, count in diag_counts.items():
        length = min(m, n - k) - max(0, -k)
        if count / max(length, 1) >= TRUE_DIAGONAL_THRESHOLD:
            n_true += 1
    ntdiags_ratio = (n_true / ndiags) if ndiags else 0.0

    er_dia = nnz / (ndiags * m) if ndiags else 1.0
    er_ell = nnz / (max_rd * m) if max_rd else 1.0

    return {
        "m": int(m),
        "n": int(n),
        "ndiags": int(ndiags),
        "ntdiags_ratio": float(ntdiags_ratio),
        "nnz": int(nnz),
        "aver_rd": float(aver_rd),
        "max_rd": int(max_rd),
        "var_rd": float(var_rd),
        "er_dia": float(er_dia),
        "er_ell": float(er_ell),
    }


def csr_spmm_loop(matrix: CSRMatrix, X: np.ndarray) -> np.ndarray:
    """Scalar triple loop ``Y = A @ X`` (the SpMM oracle).

    One multiply-accumulate per stored non-zero per RHS column, in row
    order — the reference the vectorized multi-RHS kernels in
    :mod:`repro.kernels.spmm` are benchmarked and differentially tested
    against.  Does not tick any event meters.
    """
    X = matrix.check_operand_block(X)
    k = X.shape[1]
    Y = np.zeros((matrix.n_rows, k), dtype=matrix.dtype)
    for i in range(matrix.n_rows):
        start, end = int(matrix.ptr[i]), int(matrix.ptr[i + 1])
        for jj in range(start, end):
            j = int(matrix.indices[jj])
            a = matrix.data[jj]
            for c in range(k):
                Y[i, c] += a * X[j, c]
    return Y
