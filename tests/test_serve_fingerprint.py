"""Fingerprint tests: identity, sensitivity, structural digests."""

from __future__ import annotations

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.collection import banded
from repro.formats import CSRMatrix
from repro.serve import fingerprint, structural_digest

from tests.conftest import random_csr


class TestFingerprint:
    def test_deterministic(self, rng) -> None:
        matrix = random_csr(rng)
        assert fingerprint(matrix) == fingerprint(matrix)

    def test_equal_for_identical_copies(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        b = CSRMatrix.from_dense(paper_dense.copy())
        assert fingerprint(a) == fingerprint(b)
        assert hash(fingerprint(a)) == hash(fingerprint(b))

    def test_value_change_changes_digest(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        changed = paper_dense.copy()
        changed[0, 0] = 42.0
        b = CSRMatrix.from_dense(changed)
        # Same structure, different values: scalars agree, digest differs.
        assert fingerprint(a).shape == fingerprint(b).shape
        assert fingerprint(a).nnz == fingerprint(b).nnz
        assert fingerprint(a) != fingerprint(b)

    def test_structure_change_changes_digest(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        moved = paper_dense.copy()
        moved[0, 1] = 0.0
        moved[0, 2] = 5.0  # same value set, different column
        b = CSRMatrix.from_dense(moved)
        assert fingerprint(a) != fingerprint(b)

    def test_dtype_distinguishes(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense.astype(np.float64))
        b = CSRMatrix.from_dense(paper_dense.astype(np.float32))
        assert fingerprint(a) != fingerprint(b)

    def test_distinct_across_random_pool(self, rng) -> None:
        prints = {
            fingerprint(random_csr(rng, n_rows=30 + i)) for i in range(25)
        }
        assert len(prints) == 25

    def test_is_usable_as_dict_key(self, rng) -> None:
        matrix = random_csr(rng)
        table = {fingerprint(matrix): "plan"}
        assert table[fingerprint(matrix)] == "plan"

    def test_str_is_compact(self, paper_csr) -> None:
        text = str(fingerprint(paper_csr))
        assert "4x4" in text and "9nnz" in text


class TestStructuralDigest:
    def test_values_do_not_matter(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        scaled = CSRMatrix.from_dense(paper_dense * 3.5)
        assert structural_digest(a) == structural_digest(scaled)
        assert fingerprint(a) != fingerprint(scaled)

    def test_structure_matters(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        moved = paper_dense.copy()
        moved[3, 0] = 1.0
        b = CSRMatrix.from_dense(moved)
        assert structural_digest(a) != structural_digest(b)


def strided(a: np.ndarray) -> np.ndarray:
    """A non-contiguous view holding ``a``'s values."""
    buf = np.zeros(2 * a.size, dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


class TestHashing:
    def test_digests_are_32_hex_characters(self, rng) -> None:
        key = fingerprint(random_csr(rng))
        for digest in (key.digest, key.structural):
            assert len(digest) == 32
            int(digest, 16)

    def test_one_pass_structural_digest(self, rng) -> None:
        for i in range(5):
            matrix = random_csr(rng, n_rows=20 + i)
            assert fingerprint(matrix).structural == structural_digest(matrix)

    def test_non_contiguous_input_hashes_like_its_copy(self, rng) -> None:
        matrix = random_csr(rng)
        view = CSRMatrix(
            strided(matrix.ptr),
            strided(matrix.indices),
            strided(matrix.data),
            matrix.shape,
        )
        assert not view.data.flags.c_contiguous
        assert not view.indices.flags.c_contiguous
        assert fingerprint(view) == fingerprint(matrix)
        assert structural_digest(view) == structural_digest(matrix)

    def test_hashes_without_copying_the_arrays(self) -> None:
        matrix = banded.banded_matrix(50_000, 5, seed=0)
        fingerprint(matrix)  # warm any one-time costs
        structural_digest(matrix)
        tracemalloc.start()
        try:
            fingerprint(matrix)
            structural_digest(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of any one array would cost matrix.data.nbytes (2 MB).
        assert peak < matrix.data.nbytes // 20


class TestFrozenMemo:
    def test_frozen_copy_keeps_both_keys(self, rng) -> None:
        matrix = random_csr(rng)
        frozen = matrix.frozen()
        assert fingerprint(frozen) == fingerprint(matrix)
        assert structural_digest(frozen) == structural_digest(matrix)

    def test_frozen_matrix_is_hashed_once(self, rng, hash_calls) -> None:
        frozen = random_csr(rng).frozen()
        keys = {fingerprint(frozen) for _ in range(20)}
        assert len(keys) == 1
        assert hash_calls[0] == 1

    def test_writeable_matrix_is_hashed_every_call(
        self, rng, hash_calls
    ) -> None:
        matrix = random_csr(rng)
        for _ in range(5):
            fingerprint(matrix)
        assert hash_calls[0] == 5

    def test_reassigned_array_is_rehashed(self, rng, hash_calls) -> None:
        frozen = random_csr(rng).frozen()
        before = fingerprint(frozen)
        doubled = CSRMatrix(
            frozen.ptr, frozen.indices, frozen.data * 2.0, frozen.shape
        ).frozen()
        frozen.data = doubled.data
        assert frozen.is_frozen
        after = fingerprint(frozen)
        assert after != before
        assert after == fingerprint(doubled)
        assert fingerprint(frozen) == after
        assert hash_calls[0] == 3

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["deepcopy", "pickle"],
    )
    def test_edited_clone_gets_a_new_key(self, rng, clone) -> None:
        frozen = random_csr(rng).frozen()
        key = fingerprint(frozen)
        twin = clone(frozen)
        # The clone carries the memo along, over writeable arrays.
        assert twin._fingerprint_memo is not None
        assert not twin.is_frozen
        assert fingerprint(twin) == key
        twin.data[0] += 1.0
        assert fingerprint(twin) != key
        assert fingerprint(frozen) == key
