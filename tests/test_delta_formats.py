"""Differential sweep for structure deltas: patched == reconverted.

The serving layer treats a patched operand and a from-scratch
reconversion as the same object, so this sweep earns that right the
same way the kernel sweep does — 200 seeded matrices from the full
family mix, each put through a seeded edit schedule (insert-only,
delete-only, or ragged mixed, cycling by seed), with the patched
operand asserted **bitwise** equal to ``convert(new_csr, fmt)`` across
every registered conversion target: same arrays, same padding zeros,
same dtypes.

Inserted values are dyadic multiples of 1/8 strictly above 2, while the
base values live in [-2, 2] — a collision sum can never cancel to an
exact zero, so the stored-entry census is unambiguous on both sides of
the comparison.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.formats.delta import (
    StructureDelta,
    apply_delta,
    patch_operand,
    rebuild_operand,
)
from repro.types import INDEX_DTYPE, FormatName

from tests.test_properties_differential import (
    ALL_TARGETS,
    _structure_for,
    with_dyadic_data,
)

#: Acceptance floor: 200 seeded matrices through the full edit mix.
N_SEEDS = 200

#: Attributes that memoize derived state rather than defining the
#: operand; a patched instance may legitimately not carry them.
_CACHE_ATTRS = frozenset({"_refresh_plan"})


def _big_dyadic(rng: np.random.Generator, count: int) -> np.ndarray:
    """Positive multiples of 1/8 in (2, 4]: exactly representable, and
    no sum with base values in [-2, 2] can reach exactly zero."""
    return rng.integers(17, 33, size=count) / 8.0


def _random_delta(
    csr: CSRMatrix, rng: np.random.Generator, kind: str
) -> StructureDelta:
    """A seeded edit schedule against ``csr`` (coordinates may collide
    with survivors — duplicate-summing is part of the contract)."""
    m, n = csr.shape
    ins_rows = np.zeros(0, dtype=INDEX_DTYPE)
    ins_cols = np.zeros(0, dtype=INDEX_DTYPE)
    del_rows = np.zeros(0, dtype=INDEX_DTYPE)
    del_cols = np.zeros(0, dtype=INDEX_DTYPE)
    if kind in ("delete", "mixed") and csr.nnz:
        count = int(rng.integers(1, max(csr.nnz // 2, 2)))
        picks = rng.choice(csr.nnz, size=min(count, csr.nnz), replace=False)
        row_of = np.repeat(
            np.arange(m, dtype=INDEX_DTYPE), csr.row_degrees()
        )
        del_rows = row_of[picks]
        del_cols = csr.indices[picks].astype(INDEX_DTYPE)
    if kind in ("insert", "mixed"):
        count = int(rng.integers(1, max(csr.nnz // 2, 2) + 2))
        ins_rows = rng.integers(0, m, size=count).astype(INDEX_DTYPE)
        ins_cols = rng.integers(0, n, size=count).astype(INDEX_DTYPE)
    return StructureDelta(
        insert_rows=ins_rows,
        insert_cols=ins_cols,
        insert_vals=_big_dyadic(rng, ins_rows.shape[0]),
        delete_rows=del_rows,
        delete_cols=del_cols,
    )


def _expected_dense(
    csr: CSRMatrix, delta: StructureDelta
) -> np.ndarray:
    """Ground truth via dense arithmetic: delete, then sum insertions."""
    dense = csr.to_dense()
    dense[delta.delete_rows, delta.delete_cols] = 0.0
    np.add.at(
        dense,
        (delta.insert_rows, delta.insert_cols),
        delta.insert_vals,
    )
    return dense


def _assert_value_equal(x: object, y: object, key: str) -> None:
    if isinstance(x, np.ndarray):
        assert isinstance(y, np.ndarray), key
        assert x.dtype == y.dtype, key
        assert np.array_equal(x, y), key
    elif isinstance(x, SparseMatrix):
        assert_bitwise_equal(x, y)
    elif isinstance(x, (list, tuple)):
        assert type(x) is type(y) and len(x) == len(y), key
        for i, (xi, yi) in enumerate(zip(x, y)):
            _assert_value_equal(xi, yi, f"{key}[{i}]")
    elif isinstance(x, dict):
        assert isinstance(y, dict) and x.keys() == y.keys(), key
        for k in x:
            _assert_value_equal(x[k], y[k], f"{key}[{k}]")
    else:
        assert x == y, key


def assert_bitwise_equal(a: object, b: object) -> None:
    """Recursive structural identity: same type, same attributes, every
    array equal in dtype and bit pattern."""
    assert type(a) is type(b)
    va = {k: v for k, v in vars(a).items() if k not in _CACHE_ATTRS}
    vb = {k: v for k, v in vars(b).items() if k not in _CACHE_ATTRS}
    assert va.keys() == vb.keys()
    for key in va:
        _assert_value_equal(va[key], vb[key], key)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_patched_operands_match_reconversion(seed: int) -> None:
    rng = np.random.default_rng(10_000 + seed)
    base = with_dyadic_data(_structure_for(seed), rng)
    kind = ("insert", "delete", "mixed")[seed % 3]
    delta = _random_delta(base, rng, kind)

    new_csr, effect = apply_delta(base, delta)

    # The spliced CSR agrees with dense ground truth, is canonical, and
    # the effect's census is exact.
    expected = _expected_dense(base, delta)
    assert np.array_equal(new_csr.to_dense(), expected)
    assert new_csr.nnz == int(np.count_nonzero(expected))
    assert (
        new_csr.nnz
        == base.nnz
        + effect.added_rows.shape[0]
        - effect.removed_rows.shape[0]
    )
    assert effect.size == (
        effect.added_rows.shape[0]
        + effect.removed_rows.shape[0]
        + effect.updated_rows.shape[0]
    )

    # CSR "patch" adopts the spliced arrays directly.
    patched_csr = patch_operand(base, new_csr, effect)
    assert patched_csr.matrix is new_csr
    assert patched_csr.mode == "patched"

    for target in ALL_TARGETS:
        # The fill budget is disabled, so no target may refuse.
        operand, _ = convert(base, target, fill_budget=None)
        rebuilt = rebuild_operand(new_csr, target)
        result = patch_operand(operand, new_csr, effect)
        assert result.mode in ("patched", "rebuilt")
        assert_bitwise_equal(result.matrix, rebuilt)


#: Cases in the splice-against-oracle sweep.
ORACLE_CASES = 1_200

#: Situations the oracle sweep must reach at least once each.
ORACLE_SITUATIONS = (
    "empty",
    "row_vector",
    "column_vector",
    "rectangular",
    "duplicate_insert",
    "survivor_collision",
    "delete_insert",
    "row_emptied",
    "row_filled",
    "first_row",
    "last_row",
)


def _oracle_case(
    rng: np.random.Generator, index: int
) -> Tuple[CSRMatrix, StructureDelta]:
    """A small seeded base matrix and a delta against it.

    Shapes cycle through empty, 1 x n, m x 1, rectangular and square.
    Inserts come from a small coordinate pool, so they repeat, land on
    survivors, and re-insert deleted coordinates.  Deletes sometimes
    take whole rows.  Values are multiples of 1/8, so every sum is exact.
    """
    kind = index % 5
    m, n = (int(v) for v in rng.integers(1, 9, size=2))
    if kind == 1:
        m = 1
    elif kind == 2:
        n = 1
    elif kind == 3 and m == n:
        n = m + 1
    density = 0.0 if kind == 0 else float(rng.random())
    values = rng.choice([-2.0, -1.25, -0.5, 0.25, 1.0, 1.75], size=(m, n))
    base = CSRMatrix.from_dense(
        np.where(rng.random((m, n)) < density, values, 0.0)
    )

    row_of = np.repeat(np.arange(m, dtype=INDEX_DTYPE), base.row_degrees())
    chosen = rng.random(base.nnz) < rng.random()
    if base.nnz and rng.random() < 0.3:
        chosen |= row_of == row_of[int(rng.integers(0, base.nnz))]
    del_rows, del_cols = row_of[chosen], base.indices[chosen]

    pool = int(rng.integers(1, 2 * m * n + 1))
    pool_rows = rng.integers(0, m, size=pool)
    pool_cols = rng.integers(0, n, size=pool)
    if del_rows.size:
        pool_rows = np.concatenate([pool_rows, del_rows])
        pool_cols = np.concatenate([pool_cols, del_cols])
    picks = rng.integers(0, pool_rows.shape[0], size=int(rng.integers(0, 12)))
    return base, StructureDelta(
        insert_rows=pool_rows[picks].astype(INDEX_DTYPE),
        insert_cols=pool_cols[picks].astype(INDEX_DTYPE),
        insert_vals=rng.integers(-16, 17, size=picks.shape[0]) / 8.0,
        delete_rows=del_rows.astype(INDEX_DTYPE),
        delete_cols=del_cols.astype(INDEX_DTYPE),
    )


def _splice_oracle(csr: CSRMatrix, delta: StructureDelta):
    """``apply_delta``'s contract rebuilt from a dict of coordinates.

    Returns the expected matrix plus the added, removed and updated
    coordinate sets of DESIGN.md's delta table.
    """
    entries = {}
    row_of = np.repeat(np.arange(csr.n_rows), csr.row_degrees())
    for r, c, v in zip(row_of.tolist(), csr.indices.tolist(), csr.data.tolist()):
        entries[(r, c)] = v
    removed = set(zip(delta.delete_rows.tolist(), delta.delete_cols.tolist()))
    for coord in removed:
        del entries[coord]
    survivors = set(entries)
    sums = {}
    for r, c, v in zip(
        delta.insert_rows.tolist(),
        delta.insert_cols.tolist(),
        delta.insert_vals.tolist(),
    ):
        sums[(r, c)] = sums.get((r, c), 0.0) + v
    for coord, total in sums.items():
        entries[coord] = entries[coord] + total if coord in survivors else total
    coords = sorted(entries)
    expected = CSRMatrix.from_triplets(
        np.array([r for r, _ in coords], dtype=INDEX_DTYPE),
        np.array([c for _, c in coords], dtype=INDEX_DTYPE),
        np.array([entries[k] for k in coords], dtype=np.float64),
        csr.shape,
    )
    inserted = set(sums)
    return expected, inserted - survivors, removed, inserted & survivors


def _coords(rows: np.ndarray, cols: np.ndarray) -> list:
    assert rows.dtype == INDEX_DTYPE and cols.dtype == INDEX_DTYPE
    return list(zip(rows.tolist(), cols.tolist()))


def _situations(base, delta, new_csr, effect) -> set:
    m, n = base.shape
    old_deg, new_deg = base.row_degrees(), new_csr.row_degrees()
    inserts = _coords(delta.insert_rows, delta.insert_cols)
    touched = set(delta.insert_rows.tolist()) | set(delta.delete_rows.tolist())
    flags = {
        "empty": base.nnz == 0,
        "row_vector": m == 1,
        "column_vector": n == 1,
        "rectangular": m != n and min(m, n) > 1,
        "duplicate_insert": len(inserts) > len(set(inserts)),
        "survivor_collision": effect.updated_rows.size > 0,
        "delete_insert": bool(
            set(_coords(effect.added_rows, effect.added_cols))
            & set(_coords(effect.removed_rows, effect.removed_cols))
        ),
        "row_emptied": bool(np.any((old_deg > 0) & (new_deg == 0))),
        "row_filled": bool(np.any((old_deg == 0) & (new_deg > 0))),
        "first_row": 0 in touched,
        "last_row": m > 1 and m - 1 in touched,
    }
    return {name for name, hit in flags.items() if hit}


def test_splice_matches_coordinate_oracle() -> None:
    """``apply_delta`` against an independent dict-of-coordinates model:
    the same CSR arrays bit for bit, and the effect's three buckets equal
    the model's set differences, each in row-major order."""
    rng = np.random.default_rng(23_000)
    reached = dict.fromkeys(ORACLE_SITUATIONS, 0)
    for index in range(ORACLE_CASES):
        base, delta = _oracle_case(rng, index)
        new_csr, effect = apply_delta(base, delta)
        expected, added, removed, updated = _splice_oracle(base, delta)

        assert new_csr.shape == expected.shape, index
        for attr in ("ptr", "indices", "data"):
            got, want = getattr(new_csr, attr), getattr(expected, attr)
            assert got.dtype == want.dtype, (index, attr)
            assert got.tobytes() == want.tobytes(), (index, attr)
        for bucket, rows, cols in (
            (added, effect.added_rows, effect.added_cols),
            (removed, effect.removed_rows, effect.removed_cols),
            (updated, effect.updated_rows, effect.updated_cols),
        ):
            assert _coords(rows, cols) == sorted(bucket), index
        for name in _situations(base, delta, new_csr, effect):
            reached[name] += 1
    assert all(reached.values()), reached


class TestDeltaValidation:
    def test_delete_missing_entry_raises(self, rng) -> None:
        base = with_dyadic_data(_structure_for(3), rng)
        dense = base.to_dense()
        holes = np.argwhere(dense == 0.0)
        if holes.size == 0:
            pytest.skip("dense base has no missing coordinate")
        row, col = holes[0]
        delta = StructureDelta(
            delete_rows=np.array([row], dtype=INDEX_DTYPE),
            delete_cols=np.array([col], dtype=INDEX_DTYPE),
        )
        with pytest.raises(FormatError):
            apply_delta(base, delta)

    def test_out_of_range_coordinates_raise(self, rng) -> None:
        base = with_dyadic_data(_structure_for(4), rng)
        delta = StructureDelta(
            insert_rows=np.array([base.n_rows], dtype=INDEX_DTYPE),
            insert_cols=np.array([0], dtype=INDEX_DTYPE),
            insert_vals=np.array([1.0]),
        )
        with pytest.raises(FormatError):
            apply_delta(base, delta)

    def test_ragged_lengths_raise(self, rng) -> None:
        base = with_dyadic_data(_structure_for(5), rng)
        delta = StructureDelta(
            insert_rows=np.array([0, 0], dtype=INDEX_DTYPE),
            insert_cols=np.array([0], dtype=INDEX_DTYPE),
            insert_vals=np.array([1.0]),
        )
        with pytest.raises(FormatError):
            apply_delta(base, delta)

    def test_delete_then_insert_same_coordinate_holds_inserted_value(
        self,
    ) -> None:
        base = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        delta = StructureDelta(
            insert_rows=np.array([0], dtype=INDEX_DTYPE),
            insert_cols=np.array([0], dtype=INDEX_DTYPE),
            insert_vals=np.array([5.0]),
            delete_rows=np.array([0], dtype=INDEX_DTYPE),
            delete_cols=np.array([0], dtype=INDEX_DTYPE),
        )
        new_csr, effect = apply_delta(base, delta)
        assert new_csr.to_dense()[0, 0] == 5.0
        # Structurally the entry vanished and reappeared.
        assert effect.removed_rows.shape[0] == 1
        assert effect.added_rows.shape[0] == 1
        assert effect.updated_rows.shape[0] == 0

    def test_collision_with_survivor_sums(self) -> None:
        base = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        delta = StructureDelta(
            insert_rows=np.array([1], dtype=INDEX_DTYPE),
            insert_cols=np.array([1], dtype=INDEX_DTYPE),
            insert_vals=np.array([3.0]),
        )
        new_csr, effect = apply_delta(base, delta)
        assert new_csr.to_dense()[1, 1] == 5.0
        assert effect.updated_rows.shape[0] == 1
        assert effect.structural_size == 0


def test_format_name_coverage() -> None:
    """The sweep exercises every registered conversion target."""
    assert set(ALL_TARGETS) == set(FormatName) - {FormatName.CSR}
