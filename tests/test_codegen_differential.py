"""Differential gate for the codegen backend: every generated kernel,
bitwise.

Mirror of ``test_properties_differential``, pointed at the kernels the
``codegen`` backend emits instead of the storage formats themselves: the
same structural families (banded, stencil, power-law, uniform random,
block structured, wide-row, scattered, dense), the same dyadic-rational
value trick — matrix entries are small integers over 8, operand entries
small integers over 4, so every product and partial sum is exact in
float64 and **any** summation order produces the identical bit pattern.

For each seed and each format a template covers, the generated kernel
must be bitwise equal to *both* oracles:

* the CSR row-loop reference (``csr.spmv(x, reference=True)``), and
* the generic vectorized registry kernel the tuner would otherwise run —
  the kernel the beat-or-keep policy audits against in production.

A failing case prints the full generated source (the synthetic
``<repro-codegen:HASH>`` module), and the seed is in the test ID
(``test_...[137]``) so replaying it is one pytest invocation.

The only tolerated refusal is structural: a matrix whose structure
exceeds a template's unroll envelope (``MAX_DIAGS`` diagonals,
``MAX_ELL_SLOTS`` slots, ``MAX_DEGREE_BUCKETS`` distinct degrees) — the
serving policy keeps the generic kernel for those, so the sweep skips
them the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import banded, blocks, graphs, grids, random_sparse
from repro.errors import CodegenError
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.kernels.base import find_kernel
from repro.kernels.codegen import generate_kernel
from repro.kernels.strategies import Strategy, strategy_set
from repro.kernels.templates import CODEGEN_FORMATS

#: Number of generated matrices in the sweep (the acceptance floor is 200).
N_SEEDS = 200


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


def assert_generated_kernels_agree(
    csr: CSRMatrix, rng: np.random.Generator
) -> None:
    """The shared oracle: every generatable kernel is bitwise equal to
    the CSR row-loop reference *and* to the generic registry kernel."""
    x = dyadic_operand(rng, csr.n_cols)
    y_ref = csr.spmv(x, reference=True)
    vectorize = strategy_set(Strategy.VECTORIZE)
    covered = 0

    for target in CODEGEN_FORMATS:
        # The fill budget is disabled, so no target may refuse.
        converted, _ = convert(csr, target, fill_budget=None)
        try:
            generated = generate_kernel(converted)
        except CodegenError as exc:
            # The template declined: the structure exceeds an unroll
            # envelope (too many diagonals / slots / distinct degrees).
            # That is the beat-or-keep policy's keep-generic path, not a
            # bug — but it must say so, not fail for any other reason.
            assert "ceiling" in str(exc), (
                f"unexpected CodegenError for {target.value}: {exc}"
            )
            continue
        covered += 1
        y = generated(converted, x)
        generic = find_kernel(target, vectorize)
        y_generic = generic(converted, x)
        assert y.shape == y_ref.shape and y.dtype == y_ref.dtype
        assert np.array_equal(y, y_ref), (
            f"{generated.name} differs from the CSR row-loop reference\n"
            f"--- generated source ---\n{generated.source}"
        )
        assert np.array_equal(y, y_generic), (
            f"{generated.name} differs from the generic kernel "
            f"{generic.name}\n--- generated source ---\n{generated.source}"
        )
    # The sweep must actually exercise the templates: every family
    # admits at least the CSR template (its bucket count is tiny).
    assert covered >= 1 or csr.nnz == 0


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_generated_kernels_agree_on_generated_matrix(seed: int) -> None:
    rng = np.random.default_rng(30_000 + seed)
    csr = with_dyadic_data(_structure_for(seed), rng)
    assert_generated_kernels_agree(csr, rng)


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
def test_generated_kernels_agree_on_adversarial_shape(name: str) -> None:
    rng = np.random.default_rng(hash(name) % (2**32))
    assert_generated_kernels_agree(ADVERSARIAL[name](), rng)
