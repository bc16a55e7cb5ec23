#!/usr/bin/env python
"""Extending SMAT with a new kernel (Section 3's extensibility).

The paper claims SMAT is "flexible and extension-free": new
implementations plug in without touching the tuner.  This example
registers an ELL kernel the library does not ship — ``ELL/unroll+vectorize``,
one AXPY per packed slot — at run time, then:

1. lists ELL's kernel library, which now includes it,
2. runs the scoreboard search (Section 5.2) over the extended ELL set,
3. checks the new kernel and the scoreboard's winner against the CSR
   reference.

Run:  python examples/custom_kernel_extension.py
"""

from __future__ import annotations

import numpy as np

from repro.collection import grids
from repro.features import extract_features
from repro.formats import convert
from repro.formats.ell import ELLMatrix
from repro.kernels import (
    Strategy,
    find_kernel,
    kernels_for,
    register_kernel,
    strategy_set,
)
from repro.machine import INTEL_XEON_X5680, SimulatedBackend, gflops
from repro.tuner import PerformanceTable, run_scoreboard
from repro.types import FormatName, Precision

UNROLLED = strategy_set(Strategy.UNROLL, Strategy.VECTORIZE)


@register_kernel(FormatName.ELL, UNROLLED)
def ell_unrolled(matrix: ELLMatrix, x: np.ndarray) -> np.ndarray:
    """A user-contributed ELL kernel: the packed-slot loop unrolled into
    one vector AXPY per slot, in place of one fused ``einsum``."""
    x = matrix.check_operand(x)
    y = np.zeros(matrix.n_rows, dtype=matrix.dtype)
    for slot in range(matrix.max_row_degree):
        y += matrix.data[slot] * x[matrix.indices[slot]]
    return y


def main() -> None:
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)

    print("ELL kernel library after the runtime registration:")
    for kernel in kernels_for(FormatName.ELL):
        print(f"  {kernel.name}")

    # A 9-point stencil: every interior row holds 9 entries, so ELL pads
    # almost nothing — the structure ELL was designed for.
    matrix = grids.laplacian_9pt(120)
    features = extract_features(matrix)
    ell, cost = convert(matrix, FormatName.ELL)
    print(f"\ninput: {matrix.n_rows} rows, {matrix.nnz} nnz, "
          f"ELL width {ell.max_row_degree}, fill {ell.fill_ratio():.0%}; "
          f"conversion cost {cost.csr_spmv_units():.1f} CSR-SpMVs")

    # Scoreboard search over the extended ELL kernel set.
    table = PerformanceTable(format_name=FormatName.ELL)
    print("\nsimulated GFLOPS per ELL kernel:")
    for kernel in kernels_for(FormatName.ELL):
        seconds = backend.measure(kernel, ell, features)
        table.record(kernel.strategies, seconds)
        print(f"  {kernel.name:32s} {gflops(matrix.nnz, seconds):6.2f}")
    # The simulated Xeon charges UNROLL only on DIA's per-diagonal loop,
    # so on ELL the new kernel ties ELL/vectorize: the scoreboard scores
    # UNROLL 0 (the paper's < 1% "no effect" rule) and keeps a shipped
    # kernel.  A backend that times it faster would let it win.
    board = run_scoreboard(table)
    print("\nscoreboard strategy scores:",
          {s.value: v for s, v in board.strategy_scores.items()})
    winner = find_kernel(FormatName.ELL, board.best_strategies)
    print(f"winning ELL kernel: {winner.name}")

    x = np.ones(matrix.n_cols)
    reference = matrix.spmv(x)
    for kernel in (find_kernel(FormatName.ELL, UNROLLED), winner):
        np.testing.assert_allclose(kernel(ell, x), reference, atol=1e-9)
    print("\nnew kernel and winner verified against the CSR reference.")


if __name__ == "__main__":
    main()
