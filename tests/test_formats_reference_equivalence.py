"""Loop oracles vs vectorized converters: bitwise-identical on ~50 matrices.

The tentpole vectorization is only safe if the flat-index converters
produce *exactly* the arrays the per-row loops produced — same element
order, same padding, same ``ConversionCost.touched_slots`` — across the
structural corner cases (banded, power-law, block, empty rows, single
row/column, all-zero). This file sweeps a generated corpus and compares
every converter against its retained loop reference with
``np.array_equal`` (no tolerances: conversion moves values, it must never
change them).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import banded, graphs, random_sparse
from repro.features.extract import extract_structure_features
from repro.formats import reference
from repro.formats.convert import csr_to_dia, csr_to_ell
from repro.formats.csr import CSRMatrix


def _dense_cases():
    """Hand-built structural corner cases as dense arrays."""
    rng = np.random.default_rng(99)
    empty_rows = np.zeros((12, 12))
    empty_rows[::3, 2] = 1.5  # two of three rows empty
    blocks = np.kron(
        (rng.random((5, 5)) > 0.6).astype(float), np.ones((4, 4))
    )
    single_row = np.zeros((1, 9))
    single_row[0, [0, 4, 8]] = [1.0, -2.0, 3.0]
    single_col = np.zeros((9, 1))
    single_col[[1, 5], 0] = [4.0, 5.0]
    lower_tri = np.tril(rng.random((10, 10)))
    return {
        "empty_rows": empty_rows,
        "blocks": blocks,
        "single_row": single_row,
        "single_col": single_col,
        "all_zero": np.zeros((8, 8)),
        "one_by_one": np.array([[7.0]]),
        "dense_small": rng.random((6, 6)),
        "lower_tri": lower_tri,
    }


def _corpus():
    """~50 matrices spanning the generator families + corner cases."""
    cases = []
    for i, (name, dense) in enumerate(_dense_cases().items()):
        cases.append((name, CSRMatrix.from_dense(dense)))
    for seed in range(8):
        cases.append(
            (f"banded_{seed}", banded.banded_matrix(40 + 17 * seed,
                                                    3 + 2 * (seed % 3),
                                                    seed=seed))
        )
    for seed in range(8):
        cases.append(
            (f"powerlaw_{seed}",
             graphs.power_law_graph(60 + 23 * seed, exponent=2.0 + 0.1 * seed,
                                    seed=seed))
        )
    for seed in range(8):
        cases.append(
            (f"uniform_{seed}",
             random_sparse.uniform_random(30 + 11 * seed, 30 + 11 * seed,
                                          2.0 + seed, seed=seed))
        )
    for seed in range(6):
        occupancy = 0.3 + 0.1 * seed
        cases.append(
            (f"sparse_band_{seed}",
             banded.banded_matrix(50 + 9 * seed, 5, seed=seed,
                                  occupancy=occupancy))
        )
    for seed in range(6):
        cases.append(
            (f"bipartite_{seed}",
             graphs.uniform_bipartite(40 + 13 * seed, 50 + 7 * seed,
                                      3, seed=seed))
        )
    for seed in range(6):
        dense = (np.random.default_rng(seed).random((25, 25)) > 0.85)
        cases.append((f"random_{seed}", CSRMatrix.from_dense(dense * 1.0)))
    return cases


CORPUS = _corpus()
assert len(CORPUS) >= 42


def _assert_cost_equal(got, want, label: str) -> None:
    assert got.source == want.source, label
    assert got.target == want.target, label
    assert got.nnz == want.nnz, label
    assert got.touched_slots == want.touched_slots, label


@pytest.mark.parametrize(
    "name,matrix", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_ell_matches_loop(name, matrix) -> None:
    vec, vec_cost = csr_to_ell(matrix, fill_budget=None)
    loop, loop_cost = reference.csr_to_ell_loop(matrix, fill_budget=None)
    assert vec.max_row_degree == loop.max_row_degree
    assert np.array_equal(vec.indices, loop.indices)
    assert np.array_equal(vec.data, loop.data)
    _assert_cost_equal(vec_cost, loop_cost, name)


@pytest.mark.parametrize(
    "name,matrix", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_dia_matches_loop(name, matrix) -> None:
    vec, vec_cost = csr_to_dia(matrix, fill_budget=None)
    loop, loop_cost = reference.csr_to_dia_loop(matrix, fill_budget=None)
    assert np.array_equal(vec.offsets, loop.offsets)
    assert np.array_equal(vec.data, loop.data)
    _assert_cost_equal(vec_cost, loop_cost, name)


@pytest.mark.parametrize(
    "name,matrix", CORPUS, ids=[name for name, _ in CORPUS]
)
def test_structure_features_match_loop(name, matrix) -> None:
    vec = extract_structure_features(matrix)
    loop = reference.extract_structure_features_loop(matrix)
    assert set(vec) == set(loop), name
    for key in vec:
        assert vec[key] == pytest.approx(loop[key], abs=0.0), (name, key)
