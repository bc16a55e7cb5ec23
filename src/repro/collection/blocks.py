"""Block-structured matrix generators.

Stand-ins for structural-mechanics matrices assembled from small dense
element blocks (pkustk14, crankseg_2 style): heavy rows, high average
degree, dense local blocks — CSR territory.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.types import INDEX_DTYPE
from repro.util.rng import SeedLike, make_rng


def block_structured(
    n: int,
    block_size: int = 6,
    blocks_per_row: int = 8,
    seed: SeedLike = None,
    dtype: np.dtype = np.float64,
) -> CSRMatrix:
    """Dense ``block_size``-square blocks scattered on a block grid."""
    rng = make_rng(seed)
    n_block_rows = max(1, n // block_size)
    n = n_block_rows * block_size
    entries_rows = []
    entries_cols = []
    local_r, local_c = np.meshgrid(
        np.arange(block_size), np.arange(block_size), indexing="ij"
    )
    local_r = local_r.reshape(-1)
    local_c = local_c.reshape(-1)
    for brow in range(n_block_rows):
        n_blocks = 1 + rng.poisson(blocks_per_row - 1)
        # Blocks cluster near the diagonal (element connectivity is local).
        bcols = np.clip(
            brow + rng.integers(-3 * blocks_per_row, 3 * blocks_per_row + 1,
                                n_blocks),
            0,
            n_block_rows - 1,
        )
        for bcol in np.unique(bcols):
            entries_rows.append(brow * block_size + local_r)
            entries_cols.append(bcol * block_size + local_c)
    rows = np.concatenate(entries_rows).astype(INDEX_DTYPE)
    cols = np.concatenate(entries_cols).astype(INDEX_DTYPE)
    vals = rng.standard_normal(rows.shape[0]).astype(dtype)
    return CSRMatrix.from_triplets(rows, cols, vals, (n, n))


def wide_row_matrix(
    n: int,
    aver_degree: int = 90,
    skew: float = 4.0,
    seed: SeedLike = None,
    dtype: np.dtype = np.float64,
) -> CSRMatrix:
    """Very heavy rows with lognormal spread (crankseg_2-like, ~200/row).

    Heavy enough that padding kills ELL and the diagonal census kills DIA:
    these train the "CSR despite everything" region where the paper's model
    falls back to execute-and-measure.
    """
    rng = make_rng(seed)
    degrees = np.minimum(
        rng.lognormal(np.log(aver_degree), np.log(skew) / 2, n).astype(
            INDEX_DTYPE
        )
        + 1,
        n,
    )
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), degrees)
    centers = rng.integers(0, n, n)
    spread = max(16, n // 10)
    cols = np.clip(
        np.repeat(centers, degrees)
        + rng.integers(-spread, spread + 1, rows.shape[0]),
        0,
        n - 1,
    )
    vals = rng.standard_normal(rows.shape[0]).astype(dtype)
    return CSRMatrix.from_triplets(
        rows, cols.astype(INDEX_DTYPE), vals, (n, n)
    )
