"""Kernel library tests: every implementation of every format agrees with
the dense reference, and the registry behaves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelError
from repro.formats import CSRMatrix, convert
from repro.kernels import (
    Kernel,
    Strategy,
    describe,
    find_kernel,
    kernels_for,
    strategy_set,
    total_kernel_count,
)
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.machine.presets import AMD_OPTERON_6168
from repro.tuner import search_kernels
from repro.types import BASIC_FORMATS, FormatName, Precision
from tests.conftest import random_csr

#: ``(n_rows, n_cols, density, empty row ranges)`` for shapes a row or
#: element partition has to get right: fewer rows than a 12-way split,
#: runs of empty rows, no entries at all, and tall and wide rectangles
#: like an AMG hierarchy's P and R operators.
EDGE_SHAPES = {
    "few_rows": (5, 9, 0.4, ()),
    "empty_row_runs": (40, 30, 0.3, ((0, 15), (30, 40))),
    "no_entries": (13, 11, 0.0, ()),
    "tall": (277, 57, 0.05, ()),
    "wide": (57, 277, 0.05, ()),
}


def all_kernels():
    params = []
    for fmt in BASIC_FORMATS:
        for kernel in kernels_for(fmt):
            params.append(pytest.param(kernel, id=kernel.name))
    return params


@pytest.mark.parametrize("kernel", all_kernels())
def test_kernel_matches_dense_reference(kernel: Kernel, rng) -> None:
    csr = random_csr(rng, n_rows=33, n_cols=29, density=0.12)
    matrix, _ = convert(csr, kernel.format_name, fill_budget=None)
    x = rng.standard_normal(29)
    expected = csr.to_dense() @ x
    np.testing.assert_allclose(kernel(matrix, x), expected, atol=1e-9)


@pytest.mark.parametrize("kernel", all_kernels())
def test_kernel_on_banded_matrix(kernel: Kernel, rng) -> None:
    n = 41
    dense = (
        np.diag(rng.standard_normal(n))
        + np.diag(rng.standard_normal(n - 1), 1)
        + np.diag(rng.standard_normal(n - 3), -3)
    )
    csr = CSRMatrix.from_dense(dense)
    matrix, _ = convert(csr, kernel.format_name, fill_budget=None)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(kernel(matrix, x), dense @ x, atol=1e-9)


@pytest.mark.parametrize("kernel", all_kernels())
def test_kernel_on_empty_matrix(kernel: Kernel) -> None:
    csr = CSRMatrix(
        ptr=np.zeros(6, dtype=np.int64),
        indices=[],
        data=np.zeros(0),
        shape=(5, 7),
    )
    matrix, _ = convert(csr, kernel.format_name, fill_budget=None)
    np.testing.assert_array_equal(kernel(matrix, np.ones(7)), np.zeros(5))


@pytest.mark.parametrize("kernel", all_kernels())
def test_kernel_preserves_single_precision(kernel: Kernel, rng) -> None:
    csr = random_csr(rng, n_rows=20, n_cols=20, density=0.2, dtype=np.float32)
    matrix, _ = convert(csr, kernel.format_name, fill_budget=None)
    y = kernel(matrix, np.ones(20, dtype=np.float32))
    assert y.dtype == np.float32


def dyadic_csr(rng, n_rows, n_cols, density, empty_rows) -> CSRMatrix:
    """Random structure with values in multiples of 1/4, so every
    summation order gives the same bits."""
    mask = rng.random((n_rows, n_cols)) < density
    for lo, hi in empty_rows:
        mask[lo:hi] = False
    values = rng.integers(1, 9, size=mask.shape) / 4.0
    signs = np.where(rng.random(mask.shape) < 0.5, -1.0, 1.0)
    return CSRMatrix.from_dense(np.where(mask, signs * values, 0.0))


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
@pytest.mark.parametrize("kernel", all_kernels())
def test_kernel_bitwise_on_edge_shapes(
    kernel: Kernel, shape: str, rng
) -> None:
    csr = dyadic_csr(rng, *EDGE_SHAPES[shape])
    matrix, _ = convert(csr, kernel.format_name, fill_budget=None)
    x = rng.integers(-4, 5, size=csr.n_cols).astype(np.float64)
    y = kernel(matrix, x)
    assert y.shape == (csr.n_rows,)
    np.testing.assert_array_equal(y, csr.spmv(x, reference=True))


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.value)
@pytest.mark.parametrize(
    "arch", [INTEL_XEON_X5680, AMD_OPTERON_6168], ids=lambda a: a.name
)
def test_search_picks_parallel_kernels(arch, precision) -> None:
    # The simulated search credits PARALLEL with thread scaling however
    # the host runs it, so these picks pin Tables 1, 3 and 4.
    result = search_kernels(SimulatedBackend(arch, precision))
    assert {fmt: k.name for fmt, k in result.kernels.items()} == {
        FormatName.CSR: "CSR/parallel+vectorize",
        FormatName.COO: "COO/parallel+vectorize",
        FormatName.DIA: "DIA/parallel+row_block+vectorize",
        FormatName.ELL: "ELL/parallel+row_block+vectorize",
    }


class TestRegistry:
    def test_every_basic_format_has_multiple_kernels(self) -> None:
        for fmt in BASIC_FORMATS:
            assert len(kernels_for(fmt)) >= 4, fmt

    def test_library_size_matches_paper_scale(self) -> None:
        # "up to 24 in current SMAT system" — ours registers 22 across the
        # four basic formats.
        assert total_kernel_count() <= 24

    def test_baseline_listed_first(self) -> None:
        for fmt in BASIC_FORMATS:
            assert kernels_for(fmt)[0].strategies == frozenset()

    def test_find_kernel_exact_match(self) -> None:
        kernel = find_kernel(FormatName.CSR, strategy_set(Strategy.VECTORIZE))
        assert kernel.strategies == {Strategy.VECTORIZE}

    def test_find_kernel_missing(self) -> None:
        with pytest.raises(KernelError, match="no CSR kernel"):
            find_kernel(FormatName.CSR, strategy_set(Strategy.UNROLL))

    def test_wrong_format_rejected(self, paper_csr) -> None:
        kernel = find_kernel(FormatName.COO, strategy_set(Strategy.VECTORIZE))
        with pytest.raises(KernelError, match="applied to"):
            kernel(paper_csr, np.ones(4))

    def test_describe_is_stable(self) -> None:
        assert describe(frozenset()) == "basic"
        assert (
            describe({Strategy.PARALLEL, Strategy.VECTORIZE})
            == "parallel+vectorize"
        )

    def test_kernel_names_unique(self) -> None:
        names = [k.name for fmt in BASIC_FORMATS for k in kernels_for(fmt)]
        assert len(names) == len(set(names))
