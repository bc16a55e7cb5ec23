"""Property-based differential testing of every storage format.

Strategy: generate matrices from the same structural families as
``repro.collection`` (banded, stencil, power-law, uniform random, block
structured, wide-row) plus adversarial shapes (empty rows, single
column/row, all-dense, all-zero, 1x1, shuffled duplicate-free COO
triplets), then assert that **every** format's ``spmv`` is *bitwise*
equal to the CSR row-loop reference and that converting there and back
preserves ``to_dense()`` exactly.

Bitwise equality across formats is achievable because the generated
values are exact dyadic rationals — matrix entries are small integers
over 8, operand entries small integers over 4 — so every product and
partial sum is exactly representable in a double and *any* summation
order (per-row ``np.dot``, cumulative-sum segment reduction, diagonal
accumulation, ...) produces the identical bit pattern.  A format that
drops, duplicates, or misplaces a single entry fails loudly.

Each case is one pytest parametrization over a seed, so a failure's
seed is right in the test ID (``test_...[137]``) and replaying it is
``pytest "tests/test_properties_differential.py::...[137]"``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import banded, blocks, graphs, grids, random_sparse
from repro.formats.convert import convert
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spmm import spmm_formats, spmm_kernel_for
from repro.types import FormatName

#: Number of generated matrices in the sweep (the acceptance floor is 200).
N_SEEDS = 200

#: Every conversion target the library registers.
ALL_TARGETS = (
    FormatName.COO,
    FormatName.DIA,
    FormatName.ELL,
)


def dyadic_values(rng: np.random.Generator, count: int) -> np.ndarray:
    """Non-zero multiples of 1/8 in [-2, 2]: exact in float64, and so are
    all their products with dyadic operands and sums of any order."""
    magnitude = rng.integers(1, 17, size=count)
    sign = rng.choice((-1.0, 1.0), size=count)
    return sign * magnitude / 8.0


def dyadic_operand(rng: np.random.Generator, n: int) -> np.ndarray:
    """Operand vector of multiples of 1/4 in [-2, 2] (zeros allowed)."""
    return rng.integers(-8, 9, size=n) / 4.0


def with_dyadic_data(matrix: CSRMatrix, rng: np.random.Generator) -> CSRMatrix:
    """The same sparsity structure with exactly-representable values."""
    return CSRMatrix(
        matrix.ptr,
        matrix.indices,
        dyadic_values(rng, matrix.nnz),
        matrix.shape,
    )


def _structure_for(seed: int) -> CSRMatrix:
    """One matrix per seed, cycling through the collection's families."""
    rng = np.random.default_rng(seed)
    family = seed % 8
    if family == 0:
        return banded.banded_matrix(
            int(rng.integers(8, 48)),
            int(rng.integers(1, 9)),
            seed=seed,
            occupancy=float(rng.uniform(0.4, 1.0)),
        )
    if family == 1:
        nx = int(rng.integers(3, 8))
        return grids.laplacian_5pt(nx, int(rng.integers(3, 8)))
    if family == 2:
        return graphs.power_law_graph(
            int(rng.integers(10, 60)), exponent=2.2, seed=seed
        )
    if family == 3:
        return random_sparse.uniform_random(
            int(rng.integers(5, 50)),
            int(rng.integers(5, 50)),
            float(rng.uniform(1.0, 6.0)),
            seed=seed,
        )
    if family == 4:
        return blocks.block_structured(
            int(rng.integers(12, 40)),
            block_size=int(rng.integers(2, 5)),
            blocks_per_row=int(rng.integers(1, 4)),
            seed=seed,
        )
    if family == 5:
        return blocks.wide_row_matrix(
            int(rng.integers(10, 30)), aver_degree=8, seed=seed
        )
    if family == 6:
        # Adversarial: mostly-empty matrix with a few scattered entries.
        m, n = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        dense = np.zeros((m, n))
        for _ in range(int(rng.integers(0, 6))):
            dense[rng.integers(0, m), rng.integers(0, n)] = 1.0
        return CSRMatrix.from_dense(dense)
    # family == 7 — all-dense square block.
    n = int(rng.integers(2, 14))
    return CSRMatrix.from_dense(np.ones((n, n)))


def assert_formats_agree(csr: CSRMatrix, rng: np.random.Generator) -> None:
    """The shared oracle: every convertible format multiplies and
    round-trips bitwise-identically to the CSR reference."""
    x = dyadic_operand(rng, csr.n_cols)
    y_ref = csr.spmv(x, reference=True)
    dense_ref = csr.to_dense()

    # The vectorized CSR path itself must match the row-loop oracle.
    assert np.array_equal(csr.spmv(x), y_ref)

    for target in ALL_TARGETS:
        # The fill budget is disabled, so no target may refuse.
        converted, _ = convert(csr, target, fill_budget=None)
        y = converted.spmv(x)
        assert y.dtype == y_ref.dtype
        assert np.array_equal(y, y_ref), (
            f"{target.value} spmv differs from the CSR reference"
        )
        assert np.array_equal(converted.to_dense(), dense_ref), (
            f"{target.value} to_dense() differs after conversion"
        )
        back, _ = convert(converted, FormatName.CSR, fill_budget=None)
        assert np.array_equal(back.to_dense(), dense_ref), (
            f"{target.value} -> CSR round trip loses entries"
        )


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_all_formats_agree_on_generated_matrix(seed: int) -> None:
    rng = np.random.default_rng(10_000 + seed)
    csr = with_dyadic_data(_structure_for(seed), rng)
    assert_formats_agree(csr, rng)


#: RHS block widths for the SpMM sweep: 1 (the degenerate batch), small
#: odd widths, and one width past every kernel's internal blocking.
SPMM_WIDTHS = (1, 2, 3, 5, 8, 13, 64)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_spmm_matches_sequential_spmv(seed: int) -> None:
    """Every native SpMM kernel is bitwise equal to column-by-column SpMV.

    Same dyadic-value trick as the SpMV sweep: exact arithmetic makes
    the batched reduction order irrelevant, so the multi-RHS kernels
    (including their degree-grouping, heavy-row and blocking paths) must
    reproduce the sequential result bit for bit — on full blocks, on a
    batch of one, and on ragged sub-batches whose final slice is
    narrower than the rest.
    """
    rng = np.random.default_rng(20_000 + seed)
    csr = with_dyadic_data(_structure_for(seed), rng)
    k = SPMM_WIDTHS[seed % len(SPMM_WIDTHS)]
    X = np.stack(
        [dyadic_operand(rng, csr.n_cols) for _ in range(k)], axis=1
    )
    y_ref = np.stack(
        [csr.spmv(X[:, j], reference=True) for j in range(k)], axis=1
    )
    for name in spmm_formats():
        if name is FormatName.CSR:
            converted = csr
        else:
            converted, _ = convert(csr, name, fill_budget=None)
        kernel = spmm_kernel_for(name)
        Y = kernel(converted, X)
        assert Y.shape == (csr.n_rows, k)
        assert Y.dtype == y_ref.dtype
        assert np.array_equal(Y, y_ref), (
            f"{name.value} spmm differs from sequential SpMV"
        )
        # Ragged sweep: widths that don't divide k leave a narrower
        # final batch, the shape a draining serve queue produces.
        width = max(1, k // 2 + 1)
        parts = [
            kernel(converted, X[:, lo : lo + width])
            for lo in range(0, k, width)
        ]
        assert np.array_equal(np.concatenate(parts, axis=1), y_ref), (
            f"{name.value} spmm differs on ragged sub-batches"
        )
    # The plan-facing default (CSR-reference fallback) obeys the same
    # oracle, so formats without a native kernel degrade correctly.
    assert np.array_equal(csr.spmm(X), y_ref)


# ---------------------------------------------------------------------------
# Adversarial fixed shapes (deterministic, always in the sweep)
# ---------------------------------------------------------------------------

def _empty_rows_matrix() -> CSRMatrix:
    dense = np.zeros((7, 5))
    dense[0, 1] = 0.5
    dense[3, 4] = -1.25
    dense[6, 0] = 2.0
    return CSRMatrix.from_dense(dense)


ADVERSARIAL = {
    "empty_rows": _empty_rows_matrix,
    "single_column": lambda: CSRMatrix.from_dense(
        np.array([[0.5], [0.0], [-1.5], [2.0]])
    ),
    "single_row": lambda: CSRMatrix.from_dense(
        np.array([[0.25, 0.0, -0.75, 1.0, 0.0]])
    ),
    "one_by_one": lambda: CSRMatrix.from_dense(np.array([[0.125]])),
    "one_by_one_zero": lambda: CSRMatrix.from_dense(np.array([[0.0]])),
    "all_zero": lambda: CSRMatrix.from_dense(np.zeros((6, 6))),
    "all_dense": lambda: CSRMatrix.from_dense(
        (np.arange(25).reshape(5, 5) - 12) / 8.0
    ),
    "tall": lambda: CSRMatrix.from_dense(
        np.kron(np.eye(10), np.ones((3, 1))) / 8.0
    ),
    "wide": lambda: CSRMatrix.from_dense(
        np.kron(np.eye(3), np.ones((1, 9))) / 8.0
    ),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_all_formats_agree_on_adversarial_shape(name: str) -> None:
    rng = np.random.default_rng(hash(name) % (2**32))
    assert_formats_agree(ADVERSARIAL[name](), rng)


class TestCOOEdgeCases:
    """Duplicate-free COO triplets in arbitrary order must canonicalise
    into the same matrix the row-major ordering produces."""

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_triplets_round_trip(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 20)), int(rng.integers(3, 20))
        # Duplicate-free coordinates via sampling linear indices.
        count = int(rng.integers(1, min(m * n, 40) + 1))
        flat = rng.choice(m * n, size=count, replace=False)
        rows, cols = np.divmod(flat, n)
        data = dyadic_values(rng, count)
        order = rng.permutation(count)
        shuffled = COOMatrix(
            rows[order], cols[order], data[order], (m, n)
        )
        sorted_coo = COOMatrix(rows, cols, data, (m, n))
        assert np.array_equal(shuffled.to_dense(), sorted_coo.to_dense())
        x = dyadic_operand(rng, n)
        assert np.array_equal(shuffled.spmv(x), sorted_coo.spmv(x))
        csr, _ = convert(shuffled, FormatName.CSR, fill_budget=None)
        assert np.array_equal(
            csr.spmv(x, reference=True), sorted_coo.spmv(x)
        )
        assert_formats_agree(csr, rng)

    def test_unsorted_csr_indices_canonicalise(self) -> None:
        # Within-row column order must not matter to the constructor.
        a = CSRMatrix(
            np.array([0, 3, 3, 4]),
            np.array([2, 0, 1, 1]),
            np.array([0.5, 1.0, -0.25, 2.0]),
            (3, 3),
        )
        b = CSRMatrix(
            np.array([0, 3, 3, 4]),
            np.array([0, 1, 2, 1]),
            np.array([1.0, -0.25, 0.5, 2.0]),
            (3, 3),
        )
        assert np.array_equal(a.to_dense(), b.to_dense())
        rng = np.random.default_rng(0)
        assert_formats_agree(a, rng)
